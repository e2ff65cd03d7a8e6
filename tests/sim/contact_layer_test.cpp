// Invariants of the incremental contact-layer engine: the per-node
// adjacency index must always agree with ground-truth geometry under random
// link churn, the reusable-scratch SpatialGrid APIs must match their
// allocating predecessors, and the skin list's pair set must equal a
// brute-force O(n^2) range sweep at every step — on every movement lane,
// at exactly r, across reseed/reset and after an event-kernel hand-off.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "geo/polyline.hpp"
#include "geo/spatial_grid.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/stationary.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace dtn::sim {
namespace {

using test::RecordingRouter;

mobility::MovementModelPtr roaming(double area) {
  mobility::RandomWaypointParams params;
  params.world_min = {0.0, 0.0};
  params.world_max = {area, area};
  params.speed_min = 2.0;
  params.speed_max = 12.0;
  return std::make_unique<mobility::RandomWaypoint>(params);
}

TEST(ContactLayerTest, AdjacencyMatchesGeometryUnderChurn) {
  WorldConfig config;
  config.seed = 99;
  World world(config);
  constexpr int kNodes = 24;
  std::vector<RecordingRouter*> routers;
  for (int i = 0; i < kNodes; ++i) {
    auto router = std::make_unique<RecordingRouter>();
    routers.push_back(router.get());
    // 45 m square with 10 m radio range: dense enough that links form and
    // break every few steps.
    world.add_node(roaming(45.0), std::move(router));
  }

  for (int s = 0; s < 600; ++s) {
    world.step();
    const double r2 = config.radio_range * config.radio_range;
    std::size_t pair_count = 0;
    for (NodeIdx a = 0; a < kNodes; ++a) {
      std::vector<NodeIdx> expected;
      for (NodeIdx b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        const bool near =
            world.position_of(a).distance2_to(world.position_of(b)) <= r2;
        ASSERT_EQ(world.in_contact(a, b), near)
            << "step " << s << " pair (" << a << "," << b << ")";
        ASSERT_EQ(world.in_contact(a, b), world.in_contact(b, a));
        if (near) expected.push_back(b);
      }
      pair_count += expected.size();
      // contacts_of must be exactly the geometric neighbor set, ascending.
      ASSERT_EQ(world.contacts_of(a), expected) << "step " << s << " node " << a;
    }
    ASSERT_EQ(world.active_connection_count(), pair_count / 2);
  }
  EXPECT_GT(world.contact_events(), 0);
  // Churn actually happened: someone saw a link drop.
  bool any_down = false;
  for (const auto* r : routers) any_down |= !r->contacts_down.empty();
  EXPECT_TRUE(any_down);
}

TEST(ContactLayerTest, ContactCallbacksMirrorAdjacencyTransitions) {
  // Two scripted nodes crossing in and out of range: the adjacency index
  // must flip exactly when the up/down callbacks fire.
  WorldConfig config;
  World world(config);
  auto r0 = std::make_unique<RecordingRouter>();
  RecordingRouter* rec = r0.get();
  world.add_node(test::pinned({0.0, 0.0}), std::move(r0));
  world.add_node(test::scripted({{0.0, {30.0, 0.0}},
                                 {10.0, {0.0, 0.0}},
                                 {20.0, {30.0, 0.0}}}),
                 std::make_unique<RecordingRouter>());
  world.run(20.0);
  ASSERT_EQ(rec->contacts_up.size(), 1u);
  ASSERT_EQ(rec->contacts_down.size(), 1u);
  EXPECT_FALSE(world.in_contact(0, 1));
  EXPECT_TRUE(world.contacts_of(0).empty());
}

TEST(ContactLayerTest, AllPairsIntoMatchesAllPairsOnRandomClouds) {
  util::Pcg32 rng(2026, 7);
  geo::SpatialGrid grid(10.0);
  std::vector<std::pair<std::int32_t, std::int32_t>> scratch;
  for (int round = 0; round < 20; ++round) {
    grid.clear();
    const int n = 20 + static_cast<int>(rng.next_u32() % 180);
    for (int i = 0; i < n; ++i) {
      grid.insert(i, {rng.next_double() * 120.0, rng.next_double() * 120.0});
    }
    auto baseline = grid.all_pairs(10.0);
    grid.all_pairs_into(10.0, scratch);
    std::sort(baseline.begin(), baseline.end());
    std::sort(scratch.begin(), scratch.end());
    ASSERT_EQ(scratch, baseline) << "round " << round;
  }
}

TEST(ContactLayerTest, QueryIntoMatchesQuery) {
  util::Pcg32 rng(7, 11);
  geo::SpatialGrid grid(5.0);
  for (int i = 0; i < 200; ++i) {
    grid.insert(i, {rng.next_double() * 80.0, rng.next_double() * 80.0});
  }
  std::vector<std::int32_t> scratch;
  for (int q = 0; q < 50; ++q) {
    const geo::Vec2 pos{rng.next_double() * 80.0, rng.next_double() * 80.0};
    auto baseline = grid.query(pos, 12.5, q);
    grid.query_into(pos, 12.5, scratch, q);
    std::sort(baseline.begin(), baseline.end());
    std::sort(scratch.begin(), scratch.end());
    ASSERT_EQ(scratch, baseline) << "query " << q;
  }
}

TEST(ContactLayerTest, StaleCellsArePruned) {
  geo::SpatialGrid grid(10.0);
  // Occupy a 10x10 block of distinct cells once.
  for (int i = 0; i < 100; ++i) {
    grid.insert(i, {static_cast<double>(i % 10) * 10.0 + 5.0,
                    static_cast<double>(i / 10) * 10.0 + 5.0});
  }
  ASSERT_GE(grid.cell_count(), 100u);
  // Then rebuild from a single far-away cell for a long time: the stale
  // cells must eventually be dropped instead of accumulating forever.
  const int rebuilds = static_cast<int>(geo::SpatialGrid::kPruneAfter) * 2 + 10;
  for (int s = 0; s < rebuilds; ++s) {
    grid.clear();
    grid.insert(0, {5000.0, 5000.0});
  }
  EXPECT_LE(grid.cell_count(), 4u);
}

// ---- skin list vs brute force ------------------------------------------------

using PairList = std::vector<std::pair<NodeIdx, NodeIdx>>;

/// Ground truth: every pair with distance2 <= r*r at the current positions,
/// ascending, by an O(n^2) sweep with the contact layer's own test.
PairList brute_force_pairs(const World& world) {
  const double r = world.config().radio_range;
  PairList out;
  for (NodeIdx a = 0; a < world.node_count(); ++a) {
    for (NodeIdx b = a + 1; b < world.node_count(); ++b) {
      if (world.position_of(a).distance2_to(world.position_of(b)) <= r * r) {
        out.emplace_back(a, b);
      }
    }
  }
  return out;
}

/// The links the world holds, read back from its adjacency, ascending.
PairList world_pairs(const World& world) {
  PairList out;
  for (NodeIdx a = 0; a < world.node_count(); ++a) {
    for (const NodeIdx b : world.neighbors_of(a)) {
      if (a < b) out.emplace_back(a, b);
    }
  }
  return out;
}

/// Steps `world` `steps` times, asserting the exact pair set after each.
void step_and_check(World& world, int steps, const std::string& label) {
  for (int s = 0; s < steps; ++s) {
    world.step();
    const PairList truth = brute_force_pairs(world);
    ASSERT_EQ(world_pairs(world), truth) << label << ", step " << world.step_count();
    ASSERT_EQ(world.active_connection_count(), truth.size()) << label;
  }
}

/// A custom (virtual-dispatch) model that creeps along x and every
/// `period` steps teleports: alternately to a uniform point of the square
/// and to `hop`, which the test places exactly at r from a pinned node.
class Teleporter final : public mobility::MovementModel {
 public:
  Teleporter(double side, geo::Vec2 hop, int period)
      : side_(side), hop_(hop), period_(period) {}
  void init(util::Pcg32 rng, double /*start_time*/) override {
    rng_ = rng;
    steps_ = 0;
    pos_ = random_point();
  }
  void step(double /*now*/, double /*dt*/) override {
    ++steps_;
    if (steps_ % period_ != 0) {
      pos_.x += 0.3;
    } else {
      pos_ = (steps_ / period_) % 2 == 0 ? random_point() : hop_;
    }
  }
  [[nodiscard]] geo::Vec2 position() const override { return pos_; }

 private:
  geo::Vec2 random_point() { return {rng_.next_double() * side_, rng_.next_double() * side_}; }

  double side_;
  geo::Vec2 hop_;
  int period_;
  util::Pcg32 rng_{1, 1};
  int steps_ = 0;
  geo::Vec2 pos_;
};

/// Every movement lane in one small square (side 150 m, r = 10 m unless
/// the config says otherwise): `waypoints` random-waypoint nodes, then 6
/// buses on a closed route, stationary nodes (two pairs at exactly r: one
/// along an axis, one a 6-8-10 triangle), 4 teleporters, and one trace
/// node that glides in and parks exactly at r from node `waypoints` + 6.
void add_mixed_nodes(World& world, int waypoints) {
  const double side = 150.0;
  const double r = world.config().radio_range;
  mobility::RandomWaypointParams wp;
  wp.world_min = {0.0, 0.0};
  wp.world_max = {side, side};
  wp.speed_min = 1.0;
  wp.speed_max = 8.0;
  wp.pause_max = 5.0;
  for (int i = 0; i < waypoints; ++i) {
    world.add_node(wp, std::make_unique<test::RecordingRouter>());
  }
  auto route = std::make_shared<const geo::Polyline>(
      std::vector<geo::Vec2>{{10.0, 10.0}, {140.0, 10.0}, {140.0, 140.0}, {10.0, 140.0}},
      /*closed=*/true);
  mobility::BusParams bus;
  bus.stop_spacing = 60.0;
  bus.pause_min = 1.0;
  bus.pause_max = 3.0;
  for (int i = 0; i < 6; ++i) {
    world.add_node(route, bus, std::make_unique<test::RecordingRouter>());
  }
  const geo::Vec2 anchor{40.0, 75.0};
  mobility::StationaryNodeSpec fixed;
  for (const geo::Vec2 p : {anchor, anchor + geo::Vec2{r, 0.0}, geo::Vec2{100.0, 100.0},
                            geo::Vec2{100.0 + 0.6 * r, 100.0 + 0.8 * r}}) {
    fixed.pos = p;
    world.add_node(fixed, std::make_unique<test::RecordingRouter>());
  }
  for (int i = 0; i < 4; ++i) {
    world.add_node(std::make_unique<Teleporter>(side, anchor + geo::Vec2{0.0, r}, 7 + i),
                   std::make_unique<test::RecordingRouter>());
  }
  world.add_node(test::scripted({{0.0, anchor - geo::Vec2{4.0 * r, 0.0}},
                                 {3.0, anchor - geo::Vec2{r, 0.0}},
                                 {1e6, anchor - geo::Vec2{r, 0.0}}}),
                 std::make_unique<test::RecordingRouter>());
}

constexpr int kMixedExtra = 15;  // non-waypoint nodes add_mixed_nodes adds

TEST(SkinListTest, MatchesBruteForceOnEveryLaneAndAtExactlyR) {
  World world(test::test_world_config(5));
  add_mixed_nodes(world, 60 - kMixedExtra);
  ASSERT_EQ(world.node_count(), 60);
  step_and_check(world, 1500, "mixed n=60");
  // The exact-r pairs are links: both stationary pairs, the parked trace
  // node, and the teleporter hop.
  const NodeIdx anchor = 60 - kMixedExtra + 6;
  EXPECT_TRUE(world.in_contact(anchor, anchor + 1));
  EXPECT_TRUE(world.in_contact(anchor + 2, anchor + 3));
  EXPECT_TRUE(world.in_contact(anchor, world.node_count() - 1));
  EXPECT_GT(world.contact_events(), 0);
  // The skin did its job: far fewer rebuilds than steps (the teleporters
  // force one every few steps), and every step tested the list.
  EXPECT_GT(world.candidate_rebuilds(), 0);
  EXPECT_LT(world.candidate_rebuilds(), 1500);
  EXPECT_GE(world.candidates_tested(), world.contact_events());
}

TEST(SkinListTest, SlowWorldRebuildsRarely) {
  // Without teleports, a rebuild is due only after a node covers half a
  // skin (r = 10 m at 8 m/s max: 13+ steps of 0.1 s).
  World world(test::test_world_config(6));
  mobility::RandomWaypointParams wp;
  wp.world_min = {0.0, 0.0};
  wp.world_max = {100.0, 100.0};
  wp.speed_min = 1.0;
  wp.speed_max = 8.0;
  for (int i = 0; i < 40; ++i) world.add_node(wp, std::make_unique<test::RecordingRouter>());
  step_and_check(world, 1300, "waypoints n=40");
  EXPECT_LE(world.candidate_rebuilds(), 1300 / 12);
}

TEST(SkinListTest, TinyWorldsMatchBruteForce) {
  for (const int n : {0, 1, 2}) {
    World world(test::test_world_config(3));
    // Two nodes at exactly r: a link from the first step on.
    if (n >= 1) world.add_node(test::pinned({0.0, 0.0}), std::make_unique<test::RecordingRouter>());
    if (n >= 2) {
      world.add_node(test::pinned({0.0, world.config().radio_range}),
                     std::make_unique<test::RecordingRouter>());
    }
    step_and_check(world, 50, "n=" + std::to_string(n));
    EXPECT_EQ(world.active_connection_count(), n == 2 ? 1u : 0u);
    EXPECT_EQ(world.candidate_rebuilds(), 1) << "nothing moves: one build, no rebuild";
  }
}

TEST(SkinListTest, SurvivesReseedAndResetToASmallerWorld) {
  WorldConfig config = test::test_world_config(8);
  World world(config);
  add_mixed_nodes(world, 60 - kMixedExtra);
  step_and_check(world, 300, "first run");
  world.reseed(9);
  EXPECT_EQ(world.candidate_rebuilds(), 0);
  EXPECT_EQ(world.candidates_tested(), 0);
  step_and_check(world, 300, "reseeded");
  // A smaller world with a wider range: stale ids and the old cell size
  // must not leak into the rebuilt list.
  config.radio_range = 15.0;
  world.reset(config);
  add_mixed_nodes(world, 5);
  step_and_check(world, 300, "reset to n=20");
  ASSERT_EQ(world.node_count(), 5 + kMixedExtra);
  // And back to the first shape at the original range.
  config.radio_range = 10.0;
  world.reset(config);
  add_mixed_nodes(world, 60 - kMixedExtra);
  step_and_check(world, 300, "reset to n=60");
}

TEST(SkinListTest, ResetToFewerNodesInPlaceDropsTheirPairs) {
  // Nodes that do not move never trigger a rebuild by displacement, so
  // only the reset itself can retire the old list: a list kept across
  // the reset would still name nodes 3-5, which no longer exist.
  World world(test::test_world_config(4));
  const auto add_cluster = [&](int n) {
    for (int i = 0; i < n; ++i) {
      world.add_node(test::pinned({1.5 * i, 0.5 * i}), std::make_unique<test::RecordingRouter>());
    }
  };
  add_cluster(6);
  step_and_check(world, 5, "six pinned");
  ASSERT_EQ(world.active_connection_count(), 15u);
  world.reset(test::test_world_config(4));
  add_cluster(3);
  step_and_check(world, 5, "three pinned");
  EXPECT_EQ(world.active_connection_count(), 3u);
}

TEST(SkinListTest, FixedStepsAfterEventKernelHandOffMatchBruteForce) {
  WorldConfig config = test::test_world_config(12);
  config.event_kernel = true;
  World world(config);
  mobility::RandomWaypointParams wp;
  wp.world_min = {0.0, 0.0};
  wp.world_max = {120.0, 120.0};
  wp.speed_min = 1.0;
  wp.speed_max = 8.0;
  for (int i = 0; i < 50; ++i) world.add_node(wp, std::make_unique<test::RecordingRouter>());
  mobility::StationaryNodeSpec fixed;
  fixed.pos = {60.0, 60.0};
  world.add_node(fixed, std::make_unique<test::RecordingRouter>());
  step_and_check(world, 20, "before the kernel");
  world.run(40.0);
  ASSERT_TRUE(world.event_kernel_used());
  // The kernel moved every node without the list; the next fixed step
  // must rebuild it rather than trust the old snapshot.
  const std::int64_t rebuilds = world.candidate_rebuilds();
  step_and_check(world, 1, "first step after the kernel");
  EXPECT_EQ(world.candidate_rebuilds(), rebuilds + 1);
  step_and_check(world, 400, "after the kernel");
}

}  // namespace
}  // namespace dtn::sim
