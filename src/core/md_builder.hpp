// MD construction + MEMD (paper Sec. III-B2, Theorems 2 & 3).
//
// A node u_i builds the expected-meeting-delay matrix MD whenever it meets
// another node: its own row D_ij comes from Theorem 2 applied to its live
// contact history (conditioned on elapsed time), while every foreign entry
// D_jk (j != i) is approximated by the average interval I_jk from the MI
// matrix ("ui can replace it with I_jk for simplicity"). Dijkstra over MD
// from u_i then yields MEMD(u_i, d) for every destination d at once.
//
// MemdCache is the routers' form. It never materialises MD: every row but
// `self` is MI's shared row, so it recomputes only the Theorem-2 row and
// runs the sparse Dijkstra kernel over MI with that row in place of row
// `self`. With version-based invalidation it restarts the search only when
// the node's MI or own history changed, or the time bucket moved; within
// one epoch each query settles only as far as it needs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/contact_history.hpp"
#include "core/dijkstra.hpp"
#include "core/mi_matrix.hpp"

namespace dtn::core {

/// Builds node `self`'s MD matrix at time t (row-major n×n).
/// Row `self` uses Theorem 2 (EMD conditioned on elapsed time); other rows
/// copy MI averages. Unknown entries are +inf (no edge).
std::vector<double> build_md(const MiMatrix& mi, const ContactHistory& history,
                             NodeIdx self, double t);

/// Fills `row`, a sparse row of n entries, with self's MD row at time t:
/// Theorem 2 over the live window for every met peer (the columns it
/// indexes), +inf elsewhere, 0 at self. `window` is scratch holding one
/// peer's intervals in deque order, so the estimator sums in the same
/// order as over the deque itself.
void theorem2_row(const ContactHistory& history, NodeIdx self, double t, NodeIdx n,
                  double* row, std::vector<double>& window);

/// theorem2_row restricted to `peers` (CR's own community): Theorem 2 runs
/// for the listed met peers only, and each of their entries and index bits
/// equals theorem2_row's. Every other column stays +inf and unindexed.
void theorem2_row_over(const ContactHistory& history, NodeIdx self, double t, NodeIdx n,
                       const std::vector<NodeIdx>& peers, double* row,
                       std::vector<double>& window);

/// Caches the Dijkstra search from `self` over the MD of one MI, whose rows
/// it reads between queries. Restarts it (O(n) Theorem-2 row) when
/// (mi.version, history pair count, time bucket) changed; the bucket
/// quantizes t so Theorem 2's elapsed-time term refreshes between contacts.
/// memd() settles only up to dst; results equal Dijkstra over build_md().
class MemdCache {
 public:
  explicit MemdCache(double time_quantum = 1.0) : quantum_(time_quantum) {}

  /// MEMD(self, dst) at time t; +inf when dst is unreachable in MD.
  double memd(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
              NodeIdx dst, double t);

  /// Full distance vector (forces a rebuild check).
  const std::vector<double>& distances(const MiMatrix& mi,
                                       const ContactHistory& history, NodeIdx self,
                                       double t);

  [[nodiscard]] const DijkstraCounters& counters() const { return dijkstra_.counters; }

  /// Forces the next query to recompute (buffers retained). Also the
  /// Router::reset support: a reset MiMatrix rewinds its version.
  void invalidate() { valid_ = false; }

 private:
  void refresh(const MiMatrix& mi, const ContactHistory& history, NodeIdx self,
               double t);

  double quantum_;
  bool valid_ = false;
  std::uint64_t mi_version_ = 0;
  std::int64_t time_bucket_ = 0;
  std::size_t history_pairs_ = 0;
  std::vector<double> own_row_;  ///< Theorem-2 row of `self`, sparse form
  std::vector<double> window_;   ///< one peer's intervals, deque order
  DijkstraWorkspace dijkstra_;
};

}  // namespace dtn::core
