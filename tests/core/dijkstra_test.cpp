#include "core/dijkstra.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "../reference_md.hpp"
#include "util/rng.hpp"

namespace dtn::core {
namespace {

using test::dense_oracle;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> matrix(NodeIdx n, std::initializer_list<std::tuple<int, int, double>> edges,
                           bool symmetric = true) {
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  for (NodeIdx i = 0; i < n; ++i) m[static_cast<std::size_t>(i) * n + i] = 0.0;
  for (const auto& [a, b, w] : edges) {
    m[static_cast<std::size_t>(a) * n + b] = w;
    if (symmetric) m[static_cast<std::size_t>(b) * n + a] = w;
  }
  return m;
}

TEST(Dijkstra, TrivialSelfDistance) {
  const auto m = matrix(2, {{0, 1, 5.0}});
  const auto r = dijkstra_dense(m, 2, 0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 5.0);
}

TEST(Dijkstra, PrefersMultiHopWhenCheaper) {
  // 0-1 = 10 direct; 0-2-1 = 3 + 4 = 7.
  const auto m = matrix(3, {{0, 1, 10.0}, {0, 2, 3.0}, {2, 1, 4.0}});
  const auto r = dijkstra_dense(m, 3, 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 7.0);
  EXPECT_DOUBLE_EQ(r.dist[2], 3.0);
}

TEST(Dijkstra, UnreachableStaysInfinite) {
  const auto m = matrix(3, {{0, 1, 1.0}});
  const auto r = dijkstra_dense(m, 3, 0);
  EXPECT_TRUE(std::isinf(r.dist[2]));
}

TEST(Dijkstra, AsymmetricEdges) {
  // Directed: 0->1 cheap, 1->0 expensive.
  auto m = matrix(2, {}, false);
  m[0 * 2 + 1] = 1.0;
  m[1 * 2 + 0] = 100.0;
  const auto fwd = dijkstra_dense(m, 2, 0);
  const auto bwd = dijkstra_dense(m, 2, 1);
  EXPECT_DOUBLE_EQ(fwd.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(bwd.dist[0], 100.0);
}

TEST(Dijkstra, NegativeWeightsClampedToZero) {
  auto m = matrix(2, {{0, 1, -5.0}});
  const auto r = dijkstra_dense(m, 2, 0);
  EXPECT_DOUBLE_EQ(r.dist[1], 0.0);
}

TEST(Dijkstra, ChainAccumulatesHops) {
  const auto m = matrix(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  const auto r = dijkstra_dense(m, 4, 0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
}

// Floyd-Warshall reference for the property test.
std::vector<double> floyd_warshall(std::vector<double> m, NodeIdx n) {
  for (NodeIdx k = 0; k < n; ++k) {
    for (NodeIdx i = 0; i < n; ++i) {
      for (NodeIdx j = 0; j < n; ++j) {
        const double via = m[static_cast<std::size_t>(i) * n + k] +
                           m[static_cast<std::size_t>(k) * n + j];
        double& cur = m[static_cast<std::size_t>(i) * n + j];
        if (via < cur) cur = via;
      }
    }
  }
  return m;
}

class DijkstraRandomGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(DijkstraRandomGraphTest, MatchesFloydWarshall) {
  const NodeIdx n = static_cast<NodeIdx>(GetParam());
  util::Pcg32 rng(55, static_cast<std::uint64_t>(n));
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  for (NodeIdx i = 0; i < n; ++i) {
    m[static_cast<std::size_t>(i) * n + i] = 0.0;
    for (NodeIdx j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.35)) {
        m[static_cast<std::size_t>(i) * n + j] = rng.uniform(1.0, 100.0);
      }
    }
  }
  const auto reference = floyd_warshall(m, n);
  for (NodeIdx src = 0; src < n; ++src) {
    const auto r = dijkstra_dense(m, n, src);
    for (NodeIdx v = 0; v < n; ++v) {
      const double expected = reference[static_cast<std::size_t>(src) * n + v];
      if (std::isinf(expected)) {
        EXPECT_TRUE(std::isinf(r.dist[static_cast<std::size_t>(v)]));
      } else {
        EXPECT_NEAR(r.dist[static_cast<std::size_t>(v)], expected, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DijkstraRandomGraphTest, ::testing::Values(4, 8, 16, 32));

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      NodeIdx n, NodeIdx src, const char* what) {
  ASSERT_EQ(a.size(), static_cast<std::size_t>(n)) << what;
  ASSERT_EQ(b.size(), static_cast<std::size_t>(n)) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[v]), std::bit_cast<std::uint64_t>(b[v]))
        << what << " n=" << n << " src=" << src << " v=" << v;
  }
}

/// A random delay graph in both forms: `dense` (unknown rows read as +inf
/// rows, garbage on the diagonal) and an MiMatrix holding the same edges.
struct RandomGraph {
  explicit RandomGraph(NodeIdx n) : mi(n) {}
  std::vector<double> dense;
  MiMatrix mi;
};

RandomGraph random_graph(NodeIdx n, double fill, util::Pcg32& rng) {
  const auto n_sz = static_cast<std::size_t>(n);
  RandomGraph g(n);
  g.dense.assign(n_sz * n_sz, kInf);
  for (NodeIdx i = 0; i < n; ++i) {
    double* row = g.dense.data() + static_cast<std::size_t>(i) * n_sz;
    // Diagonal garbage: no kernel may read it.
    row[static_cast<std::size_t>(i)] = rng.uniform(-9.0, 9.0);
    if (rng.bernoulli(0.2)) continue;  // unknown row: no out-edges
    for (NodeIdx j = 0; j < n; ++j) {
      if (i == j || !rng.bernoulli(fill)) continue;  // +inf: no edge
      const double pick = rng.next_double();
      double w;
      if (pick < 0.15) {
        w = 0.0;
      } else if (pick < 0.3) {
        w = -rng.uniform(0.0, 5.0);  // clamped
      } else if (pick < 0.7) {
        w = static_cast<double>(rng.uniform_int(1, 4));  // ties
      } else {
        w = rng.uniform(0.1, 100.0);
      }
      row[static_cast<std::size_t>(j)] = w;
      g.mi.set_entry(i, j, w, 0.0);
    }
  }
  return g;
}

class DijkstraSparseTest : public ::testing::TestWithParam<int> {};

// Randomised differential: the sparse kernel (through a reused workspace
// and through dijkstra_dense) against the dense oracle, at 5% to 60% fill,
// with +inf, zero and clamped negative weights, many equal-distance ties
// (small integer weights) and null rows. Every dist must match bit for bit.
TEST_P(DijkstraSparseTest, MatchesDenseOracleBitForBit) {
  const NodeIdx n = static_cast<NodeIdx>(GetParam());
  DijkstraWorkspace ws;  // reused across trials and sources
  std::uint64_t trial = 0;
  for (const double fill : {0.05, 0.2, 0.4, 0.6}) {
    util::Pcg32 rng(2024 + trial++, static_cast<std::uint64_t>(n));
    const RandomGraph g = random_graph(n, fill, rng);
    const NodeIdx stride = n > 32 ? 7 : 1;
    for (NodeIdx src = 0; src < n; src += stride) {
      const std::vector<double> oracle = dense_oracle(g.dense, n, src);
      ws.start(g.mi, src, g.mi.row_data(src));
      expect_same_bits(ws.settle_all(), oracle, n, src, "workspace");
      expect_same_bits(dijkstra_dense(g.dense, n, src).dist, oracle, n, src, "dense");
    }
  }
}

// Target-driven settling: settle_until(dst) queries in random order, each
// resuming the search the previous one left, return the bits settle_all()
// does; a settle_all() after them completes the same vector.
TEST_P(DijkstraSparseTest, SettleUntilMatchesSettleAll) {
  const NodeIdx n = static_cast<NodeIdx>(GetParam());
  DijkstraWorkspace full;
  DijkstraWorkspace partial;
  std::uint64_t trial = 0;
  for (const double fill : {0.05, 0.2, 0.6}) {
    util::Pcg32 rng(77 + trial++, static_cast<std::uint64_t>(n));
    const RandomGraph g = random_graph(n, fill, rng);
    const NodeIdx stride = n > 32 ? 11 : 1;
    for (NodeIdx src = 0; src < n; src += stride) {
      full.start(g.mi, src, g.mi.row_data(src));
      const std::vector<double> all = full.settle_all();
      partial.start(g.mi, src, g.mi.row_data(src));
      const auto queries = static_cast<int>(rng.uniform_int(1, 2 * n));
      for (int q = 0; q < queries; ++q) {
        const auto dst = static_cast<NodeIdx>(rng.uniform_int(0, n - 1));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(partial.settle_until(dst)),
                  std::bit_cast<std::uint64_t>(all[static_cast<std::size_t>(dst)]))
            << "n=" << n << " src=" << src << " dst=" << dst;
      }
      expect_same_bits(partial.settle_all(), all, n, src, "resumed");
    }
  }
  // Target-driven queries never do more work than full searches.
  EXPECT_EQ(partial.counters.calls, full.counters.calls);
  EXPECT_LE(partial.counters.settled, full.counters.settled);
  EXPECT_LE(partial.counters.relaxed, full.counters.relaxed);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DijkstraSparseTest, ::testing::Values(1, 2, 17, 240));

TEST(Dijkstra, SourceRowReplacesGraphRow) {
  // The graph's own row 0 says 0 -> 1 costs 50; the source row says 5, and
  // knows no edge 0 -> 2 even though the graph's row does.
  MiMatrix graph(3);
  graph.set_entry(0, 1, 50.0, 0.0);
  graph.set_entry(0, 2, 1.0, 0.0);
  graph.set_entry(1, 2, 2.0, 0.0);
  std::vector<double> own(sparse_row_size(3), 0.0);  // empty column index
  own[1] = 5.0;
  own[2] = kInf;
  index_column(own.data(), 3, 1);
  DijkstraWorkspace ws;
  ws.start(graph, 0, own.data());
  EXPECT_DOUBLE_EQ(ws.settle_until(2), 7.0);
  ws.start(graph, 0, nullptr);  // no source row: nothing is reachable
  EXPECT_TRUE(std::isinf(ws.settle_until(1)));
}

TEST(Dijkstra, WorkspaceShrinksWithN) {
  // A workspace sized by a large graph must give exact results on a
  // smaller one (no stale entries past n).
  DijkstraWorkspace ws;
  util::Pcg32 rng(5, 5);
  const RandomGraph big = random_graph(130, 0.5, rng);
  ws.start(big.mi, 0, big.mi.row_data(0));
  ws.settle_all();
  MiMatrix small(2);
  small.set_entry(0, 1, 3.0, 0.0);
  ws.start(small, 0, small.row_data(0));
  const std::vector<double>& dist = ws.settle_all();
  ASSERT_EQ(dist.size(), 2u);
  EXPECT_DOUBLE_EQ(dist[1], 3.0);
  EXPECT_EQ(ws.counters.calls, 2u);
}

}  // namespace
}  // namespace dtn::core
