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
// runs Dijkstra over a row view (that row plus the MI row pointers). With
// version-based invalidation it reruns only when the node's MI or own
// history changed, or the time bucket moved.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/community.hpp"
#include "core/contact_history.hpp"
#include "core/dijkstra.hpp"
#include "core/mi_matrix.hpp"

namespace dtn::core {

/// Builds node `self`'s MD matrix at time t (row-major n×n).
/// Row `self` uses Theorem 2 (EMD conditioned on elapsed time); other rows
/// copy MI averages. Unknown entries are +inf (no edge).
std::vector<double> build_md(const MiMatrix& mi, const ContactHistory& history,
                             NodeIdx self, double t);

/// Intra-community MD over the dense sub-index of `community`'s members:
/// result is m×m where m = members(community).size(), indexed by position
/// in that member list. Pairs outside the community contribute no edges.
std::vector<double> build_md_intra(const MiMatrix& mi, const ContactHistory& history,
                                   const CommunityTable& table, int community,
                                   NodeIdx self, double t);

/// Caches the Dijkstra distance vector from `self` over its current MD.
/// Recomputes lazily when (mi.version, history pair count, time bucket)
/// changed. The time bucket quantizes t so the elapsed-time dependence of
/// Theorem 2 still refreshes between contacts without recomputing per
/// query.
///
/// A recompute is the O(n) Theorem-2 own row, n row pointers into `mi`,
/// and an O(n²) Dijkstra over that row view; the cache holds O(n) state and
/// its results equal Dijkstra over build_md() bit for bit.
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

  /// Forces the next query to recompute (buffers retained). Also the
  /// Router::reset support: a reset MiMatrix rewinds its version.
  void invalidate() { valid_ = false; }

 private:
  double quantum_;
  bool valid_ = false;
  std::uint64_t mi_version_ = 0;
  std::int64_t time_bucket_ = 0;
  std::size_t history_pairs_ = 0;
  std::vector<double> own_row_;      ///< Theorem-2 row of `self`
  std::vector<double> window_;       ///< one peer's intervals, deque order
  std::vector<const double*> rows_;  ///< the MD row view Dijkstra reads
  DijkstraWorkspace dijkstra_;
};

}  // namespace dtn::core
