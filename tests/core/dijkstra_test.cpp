#include "core/dijkstra.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace dtn::core {
namespace {

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
  EXPECT_EQ(extract_path(r, 0, 1), (std::vector<NodeIdx>{0, 2, 1}));
}

TEST(Dijkstra, UnreachableStaysInfinite) {
  const auto m = matrix(3, {{0, 1, 1.0}});
  const auto r = dijkstra_dense(m, 3, 0);
  EXPECT_TRUE(std::isinf(r.dist[2]));
  EXPECT_FALSE(r.reachable(2));
  EXPECT_TRUE(extract_path(r, 0, 2).empty());
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

TEST(Dijkstra, PathExtractionEndpoints) {
  const auto m = matrix(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  const auto r = dijkstra_dense(m, 4, 0);
  EXPECT_EQ(extract_path(r, 0, 0), (std::vector<NodeIdx>{0}));
  EXPECT_EQ(extract_path(r, 0, 3), (std::vector<NodeIdx>{0, 1, 2, 3}));
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

TEST(Dijkstra, PathCostsMatchDistances) {
  const NodeIdx n = 12;
  util::Pcg32 rng(99, 1);
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  for (NodeIdx i = 0; i < n; ++i) {
    m[static_cast<std::size_t>(i) * n + i] = 0.0;
    for (NodeIdx j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.5)) {
        m[static_cast<std::size_t>(i) * n + j] = rng.uniform(1.0, 50.0);
      }
    }
  }
  const auto r = dijkstra_dense(m, n, 0);
  for (NodeIdx v = 1; v < n; ++v) {
    const auto path = extract_path(r, 0, v);
    if (path.empty()) continue;
    double cost = 0.0;
    for (std::size_t k = 0; k + 1 < path.size(); ++k) {
      cost += m[static_cast<std::size_t>(path[k]) * n + path[k + 1]];
    }
    EXPECT_NEAR(cost, r.dist[static_cast<std::size_t>(v)], 1e-9);
  }
}

// The dense kernel as it stood before the row view, kept verbatim as the
// oracle for the differential below.
DijkstraResult dense_oracle(std::span<const double> delay, NodeIdx n, NodeIdx src) {
  DijkstraResult result;
  result.dist.assign(static_cast<std::size_t>(n), kInf);
  result.parent.assign(static_cast<std::size_t>(n), -1);
  std::vector<bool> done(static_cast<std::size_t>(n), false);
  result.dist[static_cast<std::size_t>(src)] = 0.0;
  for (NodeIdx iter = 0; iter < n; ++iter) {
    NodeIdx u = -1;
    double best = kInf;
    for (NodeIdx v = 0; v < n; ++v) {
      if (!done[static_cast<std::size_t>(v)] &&
          result.dist[static_cast<std::size_t>(v)] < best) {
        best = result.dist[static_cast<std::size_t>(v)];
        u = v;
      }
    }
    if (u < 0) break;
    done[static_cast<std::size_t>(u)] = true;
    const std::size_t row = static_cast<std::size_t>(u) * static_cast<std::size_t>(n);
    for (NodeIdx v = 0; v < n; ++v) {
      if (done[static_cast<std::size_t>(v)] || v == u) continue;
      double w = delay[row + static_cast<std::size_t>(v)];
      if (w == kInf) continue;
      if (w < 0.0) w = 0.0;
      const double nd = best + w;
      if (nd < result.dist[static_cast<std::size_t>(v)]) {
        result.dist[static_cast<std::size_t>(v)] = nd;
        result.parent[static_cast<std::size_t>(v)] = u;
      }
    }
  }
  return result;
}

void expect_same_bits(const DijkstraResult& a, const DijkstraResult& b, NodeIdx n,
                      NodeIdx src, const char* what) {
  ASSERT_EQ(a.dist.size(), static_cast<std::size_t>(n)) << what;
  ASSERT_EQ(b.dist.size(), static_cast<std::size_t>(n)) << what;
  for (std::size_t v = 0; v < a.dist.size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.dist[v]),
              std::bit_cast<std::uint64_t>(b.dist[v]))
        << what << " n=" << n << " src=" << src << " v=" << v;
    EXPECT_EQ(a.parent[v], b.parent[v])
        << what << " n=" << n << " src=" << src << " v=" << v;
  }
}

class DijkstraRowViewTest : public ::testing::TestWithParam<int> {};

// Randomised differential: the row-view kernel against dijkstra_dense and
// the pre-row-view oracle, on matrices with +inf, zero and negative
// (clamped) weights, many equal-distance ties (small integer weights) and
// null rows. Every dist must match bit for bit and every parent exactly.
TEST_P(DijkstraRowViewTest, MatchesDenseKernelBitForBit) {
  const NodeIdx n = static_cast<NodeIdx>(GetParam());
  const auto n_sz = static_cast<std::size_t>(n);
  DijkstraWorkspace ws;  // reused across trials and sources
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    util::Pcg32 rng(2024 + trial, static_cast<std::uint64_t>(n));
    std::vector<double> dense(n_sz * n_sz, kInf);
    std::vector<const double*> rows(n_sz, nullptr);
    for (NodeIdx i = 0; i < n; ++i) {
      double* row = dense.data() + static_cast<std::size_t>(i) * n_sz;
      // Diagonal garbage: neither kernel may read it.
      row[static_cast<std::size_t>(i)] = rng.uniform(-9.0, 9.0);
      if (rng.bernoulli(0.2)) continue;  // null row: no out-edges
      rows[static_cast<std::size_t>(i)] = row;
      for (NodeIdx j = 0; j < n; ++j) {
        if (i == j) continue;
        const double pick = rng.next_double();
        if (pick < 0.4) continue;  // +inf: no edge
        if (pick < 0.5) {
          row[static_cast<std::size_t>(j)] = 0.0;
        } else if (pick < 0.6) {
          row[static_cast<std::size_t>(j)] = -rng.uniform(0.0, 5.0);
        } else if (pick < 0.85) {
          row[static_cast<std::size_t>(j)] =
              static_cast<double>(rng.uniform_int(1, 4));  // ties
        } else {
          row[static_cast<std::size_t>(j)] = rng.uniform(0.1, 100.0);
        }
      }
    }
    // Null rows read as +inf rows in the dense forms.
    for (NodeIdx i = 0; i < n; ++i) {
      if (rows[static_cast<std::size_t>(i)] != nullptr) continue;
      double* row = dense.data() + static_cast<std::size_t>(i) * n_sz;
      for (NodeIdx j = 0; j < n; ++j) {
        if (j != i) row[static_cast<std::size_t>(j)] = kInf;
      }
    }
    const NodeIdx stride = n > 32 ? 7 : 1;
    for (NodeIdx src = 0; src < n; src += stride) {
      const DijkstraResult oracle = dense_oracle(dense, n, src);
      expect_same_bits(dijkstra_rows(rows, src, ws), oracle, n, src, "rows");
      expect_same_bits(dijkstra_dense(dense, n, src), oracle, n, src, "dense");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DijkstraRowViewTest, ::testing::Values(1, 2, 17, 240));

TEST(Dijkstra, RowViewWorkspaceShrinksWithN) {
  // A workspace sized by a large graph must give exact results on a
  // smaller one (no stale entries past n).
  DijkstraWorkspace ws;
  const auto big = matrix(5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}});
  std::vector<const double*> big_rows;
  for (std::size_t i = 0; i < 5; ++i) big_rows.push_back(big.data() + i * 5);
  dijkstra_rows(big_rows, 0, ws);
  const auto small = matrix(2, {{0, 1, 3.0}});
  const std::vector<const double*> small_rows{small.data(), nullptr};
  const DijkstraResult& r = dijkstra_rows(small_rows, 0, ws);
  ASSERT_EQ(r.dist.size(), 2u);
  EXPECT_DOUBLE_EQ(r.dist[1], 3.0);
  EXPECT_EQ(r.parent[1], 0);
}

}  // namespace
}  // namespace dtn::core
