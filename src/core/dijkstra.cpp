#include "core/dijkstra.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dtn::core {

const DijkstraResult& dijkstra_rows(std::span<const double* const> rows, NodeIdx src,
                                    DijkstraWorkspace& ws) {
  const auto n = static_cast<NodeIdx>(rows.size());
  assert(src >= 0 && src < n);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& dist = ws.result.dist;
  dist.assign(static_cast<std::size_t>(n), kInf);
  ws.result.parent.assign(static_cast<std::size_t>(n), -1);
  ws.done.assign(static_cast<std::size_t>(n), 0);
  dist[static_cast<std::size_t>(src)] = 0.0;

  for (NodeIdx iter = 0; iter < n; ++iter) {
    // Select the unfinished vertex with the smallest tentative distance.
    NodeIdx u = -1;
    double best = kInf;
    for (NodeIdx v = 0; v < n; ++v) {
      if (ws.done[static_cast<std::size_t>(v)] == 0 &&
          dist[static_cast<std::size_t>(v)] < best) {
        best = dist[static_cast<std::size_t>(v)];
        u = v;
      }
    }
    if (u < 0) break;  // remaining vertices unreachable
    ws.done[static_cast<std::size_t>(u)] = 1;
    const double* row = rows[static_cast<std::size_t>(u)];
    if (row == nullptr) continue;  // unknown row: no out-edges
    for (NodeIdx v = 0; v < n; ++v) {
      if (ws.done[static_cast<std::size_t>(v)] != 0 || v == u) continue;
      double w = row[static_cast<std::size_t>(v)];
      if (w == kInf) continue;
      if (w < 0.0) w = 0.0;
      const double nd = best + w;
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        ws.result.parent[static_cast<std::size_t>(v)] = u;
      }
    }
  }
  return ws.result;
}

DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src) {
  assert(delay.size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  std::vector<const double*> rows(static_cast<std::size_t>(n));
  for (NodeIdx i = 0; i < n; ++i) {
    rows[static_cast<std::size_t>(i)] =
        delay.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
  }
  DijkstraWorkspace ws;
  dijkstra_rows(rows, src, ws);
  return std::move(ws.result);
}

std::vector<NodeIdx> extract_path(const DijkstraResult& result, NodeIdx src,
                                  NodeIdx dst) {
  if (!result.reachable(dst)) return {};
  std::vector<NodeIdx> path;
  for (NodeIdx cur = dst; cur != -1; cur = result.parent[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
    if (cur == src) break;
  }
  if (path.back() != src) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace dtn::core
