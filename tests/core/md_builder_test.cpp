#include "core/md_builder.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "../reference_md.hpp"
#include "core/estimators.hpp"
#include "util/rng.hpp"

namespace dtn::core {
namespace {

TEST(MdBuilder, OwnRowUsesTheorem2ForeignRowsUseMi) {
  const NodeIdx n = 3;
  MiMatrix mi(n);
  mi.set_entry(1, 2, 77.0, 1.0);
  mi.set_entry(0, 1, 500.0, 1.0);  // will be overridden by Theorem 2 row

  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 100.0);  // interval {100}, t0 = 100

  // At t = 130 (elapsed 30): EMD = 100 - 30 = 70 for own row entry (0,1).
  const auto md = build_md(mi, h, 0, 130.0);
  EXPECT_NEAR(md[0 * n + 1], 70.0, 1e-12);
  EXPECT_DOUBLE_EQ(md[1 * n + 2], 77.0);
  EXPECT_TRUE(std::isinf(md[0 * n + 2]));  // never met node 2
  EXPECT_DOUBLE_EQ(md[0 * n + 0], 0.0);
  EXPECT_DOUBLE_EQ(md[2 * n + 2], 0.0);
}

TEST(MdBuilder, MemdUsesTwoHopPathWhenCheaper) {
  const NodeIdx n = 3;
  MiMatrix mi(n);
  mi.set_entry(1, 2, 10.0, 1.0);  // relay 1 meets destination 2 often

  ContactHistory h(8);
  // Own history: meet node 1 every 20 s; node 2 every 1000 s.
  h.record_contact(1, 0.0);
  h.record_contact(1, 20.0);
  h.record_contact(2, 0.0);
  h.record_contact(2, 1000.0);

  const auto md = build_md(mi, h, 0, 1000.0);
  const auto r = dijkstra_dense(md, n, 0);
  // Via node 1: EMD(0,1) + I(1,2) = 20 + 10 = 30 beats direct 1000.
  EXPECT_NEAR(r.dist[2], 30.0, 1e-9);
}

TEST(MdBuilder, Theorem2RowCoversMetPeersOnly) {
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 30.0);  // interval {30}
  h.record_contact(2, 10.0);  // met once: no interval yet
  std::vector<double> row(sparse_row_size(4), -1.0);
  std::vector<double> window;
  theorem2_row(h, 0, 30.0, 4, row.data(), window);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
  EXPECT_NEAR(row[1], 30.0, 1e-12);  // elapsed 0
  EXPECT_TRUE(std::isinf(row[2]));
  EXPECT_TRUE(std::isinf(row[3]));
  for (NodeIdx j = 0; j < 4; ++j) EXPECT_EQ(has_column(row.data(), 4, j), j == 1) << j;
}

TEST(MdBuilder, Theorem2RowOverListedPeersMatchesTheFullRow) {
  // Peers 1, 3 and 5 met with intervals, 2 met once, 4 never; the list
  // names self, 1, 2, 4 and 5 but not 3.
  ContactHistory h(8);
  for (const NodeIdx peer : {1, 3, 5}) {
    h.record_contact(peer, 2.0 * peer);
    h.record_contact(peer, 7.0 * peer + 3.0);
    h.record_contact(peer, 11.0 * peer + 9.0);
  }
  h.record_contact(2, 10.0);
  const NodeIdx n = 70;  // two index words
  std::vector<double> full(sparse_row_size(n));
  std::vector<double> over(sparse_row_size(n), -1.0);
  std::vector<double> window;
  theorem2_row(h, 0, 90.0, n, full.data(), window);
  theorem2_row_over(h, 0, 90.0, n, {0, 1, 2, 4, 5}, over.data(), window);
  for (NodeIdx j = 0; j < n; ++j) {
    const bool listed_and_met = j == 1 || j == 5;
    if (listed_and_met || j == 0) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(over[static_cast<std::size_t>(j)]),
                std::bit_cast<std::uint64_t>(full[static_cast<std::size_t>(j)]))
          << j;
    } else {
      EXPECT_TRUE(std::isinf(over[static_cast<std::size_t>(j)])) << j;
    }
    EXPECT_EQ(has_column(over.data(), n, j), listed_and_met) << j;
  }
  EXPECT_TRUE(has_column(full.data(), n, 3));  // met, but not listed
}

TEST(MemdCache, ReturnsSameAsDirectComputation) {
  const NodeIdx n = 4;
  MiMatrix mi(n);
  mi.set_entry(1, 2, 15.0, 1.0);
  mi.set_entry(2, 3, 25.0, 1.0);
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 10.0);

  MemdCache cache;
  const double via_cache = cache.memd(mi, h, 0, 3, 10.0);
  const auto md = build_md(mi, h, 0, 10.0);
  const auto direct = dijkstra_dense(md, n, 0);
  EXPECT_NEAR(via_cache, direct.dist[3], 1e-12);
}

TEST(MemdCache, InvalidatesOnMiChange) {
  const NodeIdx n = 3;
  MiMatrix mi(n);
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 10.0);

  MemdCache cache;
  const double before = cache.memd(mi, h, 0, 2, 10.0);
  EXPECT_TRUE(std::isinf(before));
  mi.set_entry(1, 2, 5.0, 11.0);  // now 0 -> 1 -> 2 exists
  const double after = cache.memd(mi, h, 0, 2, 10.0);
  EXPECT_FALSE(std::isinf(after));
}

TEST(MemdCache, InvalidatesWhenTimeBucketAdvances) {
  const NodeIdx n = 2;
  MiMatrix mi(n);
  ContactHistory h(8);
  h.record_contact(1, 0.0);
  h.record_contact(1, 100.0);  // interval {100}, t0=100

  MemdCache cache(1.0);
  const double at_100 = cache.memd(mi, h, 0, 1, 100.0);
  const double at_150 = cache.memd(mi, h, 0, 1, 150.0);
  EXPECT_NEAR(at_100, 100.0, 1e-9);
  EXPECT_NEAR(at_150, 50.0, 1e-9);  // Theorem 2: elapsed time subtracts
}

TEST(MemdCache, SelfDistanceZero) {
  MiMatrix mi(3);
  ContactHistory h(8);
  MemdCache cache;
  EXPECT_DOUBLE_EQ(cache.memd(mi, h, 1, 1, 0.0), 0.0);
}

// The cache's target-driven memd(dst) and full distances() against the
// dense oracle over build_md, bit for bit, on random sparse MI and history
// as the clock advances through several buckets and MI versions.
TEST(MemdCache, MatchesDenseMdBitForBit) {
  const NodeIdx n = 90;
  util::Pcg32 rng(31, 7);
  MiMatrix mi(n);
  ContactHistory h(8);
  MemdCache partial;
  MemdCache full;
  double t = 0.0;
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 40; ++k) {
      const auto i = static_cast<NodeIdx>(rng.uniform_int(0, n - 1));
      const auto j = static_cast<NodeIdx>(rng.uniform_int(0, n - 1));
      mi.set_entry(i, j, static_cast<double>(rng.uniform_int(1, 6)) * 10.0, t);
    }
    t += rng.uniform(0.5, 40.0);
    h.record_contact(static_cast<NodeIdx>(rng.uniform_int(1, n - 1)), t);
    const std::vector<double> oracle = test::dense_oracle(build_md(mi, h, 0, t), n, 0);
    for (int q = 0; q < 20; ++q) {
      const auto dst = static_cast<NodeIdx>(rng.uniform_int(0, n - 1));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(partial.memd(mi, h, 0, dst, t)),
                std::bit_cast<std::uint64_t>(oracle[static_cast<std::size_t>(dst)]))
          << "round " << round << " dst " << dst;
    }
    const std::vector<double>& dist = full.distances(mi, h, 0, t);
    for (NodeIdx v = 0; v < n; ++v) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(dist[static_cast<std::size_t>(v)]),
                std::bit_cast<std::uint64_t>(oracle[static_cast<std::size_t>(v)]))
          << "round " << round << " v " << v;
    }
  }
  EXPECT_EQ(partial.counters().calls, full.counters().calls);
  EXPECT_LE(partial.counters().settled, full.counters().settled);
}

}  // namespace
}  // namespace dtn::core
