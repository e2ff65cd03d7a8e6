// Dense single-source Dijkstra over an n×n non-negative delay matrix.
// O(n²), no heap: for the full dense matrices MD produces, the simple
// quadratic form beats a binary-heap version. Theorem 3 of the paper:
// running this over the MD matrix yields the minimum expected meeting
// delay (MEMD).
//
// The kernel reads the graph as a row view, one pointer per node, so MD
// never has to be materialised: the routers point every row but their own
// at the shared MI rows and only compute their Theorem-2 row.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace dtn::core {

using NodeIdx = std::int32_t;

struct DijkstraResult {
  std::vector<double> dist;     ///< dist[v] = shortest delay src -> v
  std::vector<NodeIdx> parent;  ///< parent[v] on the shortest path tree, -1 at src/unreached

  [[nodiscard]] bool reachable(NodeIdx v) const {
    return dist.at(static_cast<std::size_t>(v)) !=
           std::numeric_limits<double>::infinity();
  }
};

/// Caller-owned buffers for dijkstra_rows. A workspace reused across calls
/// of the same n allocates nothing.
struct DijkstraWorkspace {
  DijkstraResult result;
  std::vector<unsigned char> done;
};

/// Row view: n = rows.size(); rows[u][v] = edge weight u->v (+inf = no
/// edge), and a null rows[u] means u has no out-edges. Diagonal entries
/// are never read. Negative weights are clamped to 0. Writes into and
/// returns `ws.result`.
const DijkstraResult& dijkstra_rows(std::span<const double* const> rows, NodeIdx src,
                                    DijkstraWorkspace& ws);

/// `delay` is row-major n×n; delay[i*n+j] = edge weight i->j (+inf = no
/// edge). Negative weights are clamped to 0 (expected delays are
/// non-negative by construction; the clamp guards rounding). Runs
/// dijkstra_rows over the matrix's rows.
DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src);

/// Reconstructs the path src -> dst (inclusive); empty if unreachable.
std::vector<NodeIdx> extract_path(const DijkstraResult& result, NodeIdx src, NodeIdx dst);

}  // namespace dtn::core
