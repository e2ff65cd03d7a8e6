#include "core/md_builder.hpp"

#include <algorithm>
#include <cmath>

#include "core/estimators.hpp"

namespace dtn::core {

namespace {

/// An empty sparse row: +inf everywhere, 0 at self, no column indexed.
void clear_row(NodeIdx self, NodeIdx n, double* row) {
  std::fill_n(row, n, MiMatrix::kUnknown);
  row[static_cast<std::size_t>(self)] = 0.0;
  std::fill(row + n, row + sparse_row_size(n), 0.0);
}

/// Whether Theorem 2 has intervals to work on for this pair.
bool has_window(const PairHistory& ph) { return ph.met && !ph.intervals.empty(); }

/// Theorem 2 for one met peer at time t.
double theorem2_entry(const PairHistory& ph, double t, std::vector<double>& window) {
  window.assign(ph.intervals.begin(), ph.intervals.end());
  return expected_meeting_delay(window, t - ph.last_contact);
}

}  // namespace

void theorem2_row(const ContactHistory& history, NodeIdx self, double t, NodeIdx n,
                  double* row, std::vector<double>& window) {
  clear_row(self, n, row);
  for (const auto& [peer, ph] : history.pairs()) {
    if (peer == self || peer < 0 || peer >= n || !has_window(ph)) continue;
    row[static_cast<std::size_t>(peer)] = theorem2_entry(ph, t, window);
    index_column(row, n, peer);
  }
}

void theorem2_row_over(const ContactHistory& history, NodeIdx self, double t, NodeIdx n,
                       const std::vector<NodeIdx>& peers, double* row,
                       std::vector<double>& window) {
  clear_row(self, n, row);
  for (const NodeIdx peer : peers) {
    const PairHistory* ph = peer == self ? nullptr : history.pair(peer);
    if (ph == nullptr || !has_window(*ph)) continue;
    row[static_cast<std::size_t>(peer)] = theorem2_entry(*ph, t, window);
    index_column(row, n, peer);
  }
}

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
  std::vector<double> own(sparse_row_size(n));
  std::vector<double> window;
  theorem2_row(history, self, t, n, own.data(), window);
  std::copy_n(own.data(), n_sz, md.data() + static_cast<std::size_t>(self) * n_sz);
  return md;
}

double MemdCache::memd(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
                       NodeIdx dst, double t) {
  refresh(mi, history, self, t);
  return dijkstra_.settle_until(dst);
}

const std::vector<double>& MemdCache::distances(const MiMatrix& mi,
                                                const ContactHistory& history,
                                                NodeIdx self, double t) {
  refresh(mi, history, self, t);
  return dijkstra_.settle_all();
}

void MemdCache::refresh(const MiMatrix& mi, const ContactHistory& history,
                        NodeIdx self, double t) {
  const auto bucket = static_cast<std::int64_t>(std::floor(t / quantum_));
  if (valid_ && mi.version() == mi_version_ && bucket == time_bucket_ &&
      history.pair_count() == history_pairs_) {
    return;
  }
  const NodeIdx n = mi.size();
  own_row_.resize(sparse_row_size(n));
  theorem2_row(history, self, t, n, own_row_.data(), window_);
  // MD: the own row is Theorem 2's, every other row is MI's.
  dijkstra_.start(mi, self, own_row_.data());
  valid_ = true;
  mi_version_ = mi.version();
  time_bucket_ = bucket;
  history_pairs_ = history.pair_count();
}

}  // namespace dtn::core
