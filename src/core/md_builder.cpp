#include "core/md_builder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "core/estimators.hpp"

namespace dtn::core {

namespace {

/// Fills `row` (n entries) with self's MD row at time t: Theorem 2 over the
/// live window for every met peer, +inf elsewhere, 0 at self. `window` is
/// scratch holding one peer's intervals in deque order, so the estimator
/// sums in the same order as over the deque itself.
void theorem2_row(const ContactHistory& history, NodeIdx self, double t,
                  std::span<double> row, std::vector<double>& window) {
  const auto n = static_cast<NodeIdx>(row.size());
  std::fill(row.begin(), row.end(), std::numeric_limits<double>::infinity());
  row[static_cast<std::size_t>(self)] = 0.0;
  for (const auto& [peer, ph] : history.pairs()) {
    if (peer == self || peer < 0 || peer >= n) continue;
    if (!ph.met || ph.intervals.empty()) continue;
    const double elapsed = t - ph.last_contact;
    window.assign(ph.intervals.begin(), ph.intervals.end());
    row[static_cast<std::size_t>(peer)] = expected_meeting_delay(window, elapsed);
  }
}

}  // namespace

std::vector<double> build_md(const MiMatrix& mi, const ContactHistory& history,
                             NodeIdx self, double t) {
  const NodeIdx n = mi.size();
  const auto n_sz = static_cast<std::size_t>(n);
  std::vector<double> md(n_sz * n_sz, MiMatrix::kUnknown);
  // Foreign rows: copy MI averages (D_jk ~= I_jk); unknown rows stay +inf.
  for (NodeIdx j = 0; j < n; ++j) {
    double* row = md.data() + static_cast<std::size_t>(j) * n_sz;
    if (const double* mi_row = mi.row_data(j)) std::copy_n(mi_row, n_sz, row);
    row[static_cast<std::size_t>(j)] = 0.0;
  }
  // Own row: Theorem 2 over the live window, conditioned on elapsed time.
  std::vector<double> window;
  theorem2_row(history, self, t,
               std::span<double>(md).subspan(static_cast<std::size_t>(self) * n_sz, n_sz),
               window);
  return md;
}

std::vector<double> build_md_intra(const MiMatrix& mi, const ContactHistory& history,
                                   const CommunityTable& table, int community,
                                   NodeIdx self, double t) {
  const auto& members = table.members(community);
  const auto m = static_cast<NodeIdx>(members.size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> md(static_cast<std::size_t>(m) * static_cast<std::size_t>(m), kInf);
  // Dense sub-index: position of each member in the member list.
  for (NodeIdx a = 0; a < m; ++a) {
    const std::size_t row = static_cast<std::size_t>(a) * static_cast<std::size_t>(m);
    for (NodeIdx b = 0; b < m; ++b) {
      md[row + static_cast<std::size_t>(b)] =
          a == b ? 0.0 : mi.get(members[static_cast<std::size_t>(a)],
                                members[static_cast<std::size_t>(b)]);
    }
  }
  // Own row via Theorem 2 (self must be a member; otherwise leave MI rows).
  NodeIdx self_pos = -1;
  for (NodeIdx a = 0; a < m; ++a) {
    if (members[static_cast<std::size_t>(a)] == self) {
      self_pos = a;
      break;
    }
  }
  if (self_pos >= 0) {
    const std::size_t row =
        static_cast<std::size_t>(self_pos) * static_cast<std::size_t>(m);
    std::vector<double> window;
    for (NodeIdx b = 0; b < m; ++b) {
      if (b == self_pos) continue;
      const NodeIdx peer = members[static_cast<std::size_t>(b)];
      const PairHistory* ph = history.pair(peer);
      if (ph == nullptr || !ph->met || ph->intervals.empty()) {
        md[row + static_cast<std::size_t>(b)] = kInf;
        continue;
      }
      const double elapsed = t - ph->last_contact;
      window.assign(ph->intervals.begin(), ph->intervals.end());
      md[row + static_cast<std::size_t>(b)] = expected_meeting_delay(window, elapsed);
    }
  }
  return md;
}

double MemdCache::memd(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
                       NodeIdx dst, double t) {
  return distances(mi, history, self, t).at(static_cast<std::size_t>(dst));
}

const std::vector<double>& MemdCache::distances(const MiMatrix& mi,
                                                const ContactHistory& history,
                                                NodeIdx self, double t) {
  const auto bucket = static_cast<std::int64_t>(std::floor(t / quantum_));
  if (!valid_ || mi.version() != mi_version_ || bucket != time_bucket_ ||
      history.pair_count() != history_pairs_) {
    const auto n = static_cast<std::size_t>(mi.size());
    own_row_.resize(n);
    theorem2_row(history, self, t, own_row_, window_);
    // MD row view: the own row is Theorem 2's, every other row is MI's.
    rows_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      rows_[j] = mi.row_data(static_cast<NodeIdx>(j));
    }
    rows_[static_cast<std::size_t>(self)] = own_row_.data();
    dijkstra_rows(rows_, self, dijkstra_);
    valid_ = true;
    mi_version_ = mi.version();
    time_bucket_ = bucket;
    history_pairs_ = history.pair_count();
  }
  return dijkstra_.result.dist;
}

}  // namespace dtn::core
