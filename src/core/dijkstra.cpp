#include "core/dijkstra.hpp"

#include <algorithm>
#include <cassert>

namespace dtn::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr NodeIdx kUnseen = -1;
constexpr NodeIdx kSettled = -2;
}  // namespace

void DijkstraWorkspace::start(const MiMatrix& graph, NodeIdx src, const double* src_row) {
  const auto n = static_cast<std::size_t>(graph.size());
  assert(src >= 0 && static_cast<std::size_t>(src) < n);
  graph_ = &graph;
  src_ = src;
  src_row_ = src_row;
  dist_.assign(n, kInf);
  slot_.assign(n, kUnseen);
  heap_.clear();
  heap_.reserve(n);
  dist_[static_cast<std::size_t>(src)] = 0.0;
  heap_.push_back(src);
  slot_[static_cast<std::size_t>(src)] = 0;
  ++counters.calls;
}

double DijkstraWorkspace::settle_until(NodeIdx dst) {
  const auto at = static_cast<std::size_t>(dst);
  while (slot_[at] != kSettled && !heap_.empty()) settle_next();
  return dist_[at];
}

const std::vector<double>& DijkstraWorkspace::settle_all() {
  while (!heap_.empty()) settle_next();
  return dist_;
}

void DijkstraWorkspace::settle_next() {
  const NodeIdx u = heap_.front();
  place(0, heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  slot_[static_cast<std::size_t>(u)] = kSettled;
  ++counters.settled;
  const double* row = u == src_ ? src_row_ : graph_->row_data(u);
  if (row == nullptr) return;  // unknown row: no out-edges
  const NodeIdx n = graph_->size();
  const double base = dist_[static_cast<std::size_t>(u)];
  for (std::size_t w = 0; w < column_words(n); ++w) {
    auto bits = std::bit_cast<std::uint64_t>(row[static_cast<std::size_t>(n) + w]);
    counters.relaxed += static_cast<std::uint64_t>(std::popcount(bits));
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t v = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      // A settled v has dist_[v] <= base <= nd, so this also skips it.
      const double nd = base + std::max(row[v], 0.0);
      if (!(nd < dist_[v])) continue;
      dist_[v] = nd;
      if (slot_[v] == kUnseen) {
        slot_[v] = static_cast<NodeIdx>(heap_.size());
        heap_.push_back(static_cast<NodeIdx>(v));
      }
      sift_up(static_cast<std::size_t>(slot_[v]));
    }
  }
}

double DijkstraWorkspace::key(std::size_t at) const {
  return dist_[static_cast<std::size_t>(heap_[at])];
}

void DijkstraWorkspace::place(std::size_t at, NodeIdx v) {
  heap_[at] = v;
  slot_[static_cast<std::size_t>(v)] = static_cast<NodeIdx>(at);
}

void DijkstraWorkspace::sift_up(std::size_t at) {
  const NodeIdx v = heap_[at];
  const double d = key(at);
  for (; at > 0 && d < key((at - 1) / 2); at = (at - 1) / 2) place(at, heap_[(at - 1) / 2]);
  place(at, v);
}

void DijkstraWorkspace::sift_down(std::size_t at) {
  const NodeIdx v = heap_[at];
  const double d = key(at);
  for (std::size_t child; (child = 2 * at + 1) < heap_.size(); at = child) {
    if (child + 1 < heap_.size() && key(child + 1) < key(child)) ++child;
    if (!(key(child) < d)) break;
    place(at, heap_[child]);
  }
  place(at, v);
}

DijkstraResult dijkstra_dense(std::span<const double> delay, NodeIdx n, NodeIdx src) {
  assert(delay.size() == static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  MiMatrix graph(n);
  for (NodeIdx i = 0; i < n; ++i) {
    for (NodeIdx j = 0; j < n; ++j) {
      const double w = delay[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                             static_cast<std::size_t>(j)];
      if (w != kInf) graph.set_entry(i, j, w, 0.0);
    }
  }
  DijkstraWorkspace ws;
  ws.start(graph, src, graph.row_data(src));
  return {ws.settle_all()};
}

}  // namespace dtn::core
