#include "core/md_builder.hpp"

#include <algorithm>
#include <cmath>

#include "core/estimators.hpp"

namespace dtn::core {

void theorem2_row(const ContactHistory& history, NodeIdx self, double t, NodeIdx n,
                  double* row, std::vector<double>& window) {
  std::fill_n(row, n, MiMatrix::kUnknown);
  row[static_cast<std::size_t>(self)] = 0.0;
  std::fill(row + n, row + sparse_row_size(n), 0.0);  // empty column index
  for (const auto& [peer, ph] : history.pairs()) {
    if (peer == self || peer < 0 || peer >= n) continue;
    if (!ph.met || ph.intervals.empty()) continue;
    const double elapsed = t - ph.last_contact;
    window.assign(ph.intervals.begin(), ph.intervals.end());
    row[static_cast<std::size_t>(peer)] = expected_meeting_delay(window, elapsed);
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
