// The one shortest-path kernel: MEMD (Theorem 3, Dijkstra over MD), MEED,
// CR's MEMD' and MaxProp. The graph is an MiMatrix with the source row
// replaced by the caller's sparse row (core/mi_matrix.hpp), so MD is never
// materialised. Entry (u, v) is edge u->v (+inf = none), an unknown row has
// no out-edges, the diagonal is never read, negative weights clamp to 0.
//
// An indexed binary heap walks only the rows' column indexes, so a settled
// vertex costs O(n/64 + out-degree), not O(n): MI on route-bound buses is
// about 95% empty. settle_until(dst) stops once dst is final and a later
// call resumes the search. Neither early stopping nor heap tie order moves
// a bit of dist: a final dist[v] is the exact minimum of the candidates
// fl(dist[u] + w(u,v)), and any vertex settled after v has dist >= dist[v].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/mi_matrix.hpp"

namespace dtn::core {

/// Exact work counts, summed over every search a workspace ran.
struct DijkstraCounters {
  std::uint64_t calls = 0;    ///< start() calls
  std::uint64_t settled = 0;  ///< vertices made final
  std::uint64_t relaxed = 0;  ///< out-edges scanned from settled vertices
};

/// One resumable search. The heap holds each vertex at most once, so every
/// buffer is bounded by n; a workspace reused at the same n allocates
/// nothing.
class DijkstraWorkspace {
 public:
  /// Begins a search from src over `graph` with `src_row` (a sparse row, or
  /// nullptr for none) in place of graph's row src. Both must stay alive
  /// and unchanged until the next start().
  void start(const MiMatrix& graph, NodeIdx src, const double* src_row);
  /// Settles until dst (< n) is final; returns dist[dst] (+inf = unreachable).
  double settle_until(NodeIdx dst);
  /// Settles every reachable vertex; returns dist (n entries).
  const std::vector<double>& settle_all();

  DijkstraCounters counters;

 private:
  void settle_next();
  [[nodiscard]] double key(std::size_t at) const;
  void place(std::size_t at, NodeIdx v);
  void sift_up(std::size_t at);
  void sift_down(std::size_t at);

  const MiMatrix* graph_ = nullptr;
  NodeIdx src_ = 0;
  const double* src_row_ = nullptr;
  std::vector<double> dist_;
  std::vector<NodeIdx> heap_;  ///< min-heap of vertices, keyed by dist_
  std::vector<NodeIdx> slot_;  ///< heap position, or kUnseen / kSettled
};

struct DijkstraResult {
  std::vector<double> dist;  ///< dist[v] = shortest delay src -> v
};

/// `delay` is row-major n×n; delay[i*n+j] = edge weight i->j (+inf = no
/// edge). Copies the finite entries into sparse rows and settles them all.
DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src);

}  // namespace dtn::core
