// Tests for the extension baselines: MEED, FirstContact, Delegation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "../test_support.hpp"
#include "routing/delegation.hpp"
#include "routing/first_contact.hpp"
#include "routing/meed.hpp"

namespace dtn::routing {
namespace {

using test::make_message;
using test::pinned;
using test::scripted;
using test::test_world_config;

std::vector<std::pair<double, geo::Vec2>> oscillate(geo::Vec2 near, geo::Vec2 far,
                                                    double period, double dwell,
                                                    int cycles) {
  std::vector<std::pair<double, geo::Vec2>> kf;
  for (int k = 0; k < cycles; ++k) {
    const double t0 = k * period;
    kf.push_back({t0, near});
    kf.push_back({t0 + dwell, near});
    kf.push_back({t0 + dwell + 1.0, far});
    kf.push_back({t0 + period - 1.0, far});
  }
  kf.push_back({cycles * period, near});
  return kf;
}

// ---------- FirstContact ----------

TEST(FirstContact, HandsSingleCopyToFirstEncounter) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<FirstContactRouter>());
  world.add_node(pinned({5.0, 0.0}), std::make_unique<FirstContactRouter>());
  world.add_node(pinned({2000.0, 0.0}), std::make_unique<FirstContactRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  EXPECT_FALSE(world.buffer_of(0).has(0));  // single copy moved
  EXPECT_TRUE(world.buffer_of(1).has(0));
}

TEST(FirstContact, DeliversDirectly) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<FirstContactRouter>());
  world.add_node(pinned({5.0, 0.0}), std::make_unique<FirstContactRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 1));
  world.run(2.0);
  EXPECT_EQ(world.metrics().delivered(), 1);
}

TEST(FirstContact, SingleCopyInvariantAcrossNetwork) {
  sim::World world(test_world_config());
  for (int i = 0; i < 4; ++i) {
    world.add_node(pinned({i * 8.0, 0.0}), std::make_unique<FirstContactRouter>());
  }
  world.add_node(pinned({5000.0, 0.0}), std::make_unique<FirstContactRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 4));
  world.run(5.0);
  int holders = 0;
  for (sim::NodeIdx v = 0; v < 5; ++v) {
    if (world.buffer_of(v).has(0)) ++holders;
  }
  EXPECT_EQ(holders, 1);  // never replicated
}

// ---------- MEED ----------

TEST(Meed, ForwardsTowardLowerExpectedDelay) {
  // Node 1 meets the destination (2) periodically; node 0 only meets 1.
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  world.add_node(scripted(oscillate({300.0, 0.0}, {5.0, 0.0}, 60.0, 20.0, 8)),
                 std::make_unique<MeedRouter>(MeedParams{}));
  world.add_node(pinned({305.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  world.run(420.0);
  world.inject_message(make_message(0, 0, 2));
  world.run(150.0);
  EXPECT_TRUE(world.metrics().delivered() == 1 || world.buffer_of(1).has(0));
  EXPECT_FALSE(world.buffer_of(0).has(0));
}

TEST(Meed, HoldsWhenPeerHasNoPath) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  world.add_node(pinned({5.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  world.add_node(pinned({2000.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  // Neither side can reach node 2 (both EEDs infinite): the copy stays.
  EXPECT_TRUE(world.buffer_of(0).has(0));
  EXPECT_FALSE(world.buffer_of(1).has(0));
}

TEST(Meed, EedUsesAverageIntervalsNotConditioning) {
  sim::World world(test_world_config());
  auto router0 = std::make_unique<MeedRouter>(MeedParams{});
  MeedRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(scripted(oscillate({5.0, 0.0}, {100.0, 0.0}, 50.0, 10.0, 8)),
                 std::make_unique<MeedRouter>(MeedParams{}));
  world.run(420.0);
  // MEED's estimate is the average interval (~50 s), NOT conditioned on
  // elapsed time — querying at different times gives the same value.
  const double now_estimate = r0->eed(1);
  EXPECT_NEAR(now_estimate, 50.0, 10.0);
}

TEST(Meed, ChargesLinkStateOverhead) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  world.add_node(pinned({5.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  world.step();
  EXPECT_GT(world.metrics().control_bytes(), 0);
}

TEST(Meed, ContactlessRouterHasAnUnknownMi) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<MeedRouter>(MeedParams{}));
  auto router1 = std::make_unique<MeedRouter>(MeedParams{});
  MeedRouter* r1 = router1.get();
  world.add_node(pinned({2000.0, 0.0}), std::move(router1));
  world.run(5.0);
  ASSERT_EQ(r1->mi().size(), 2);
  EXPECT_EQ(r1->mi().version(), 0u);
  EXPECT_TRUE(std::isinf(r1->mi().get(1, 0)));
  EXPECT_TRUE(std::isinf(r1->eed(0)));
}

// ---------- Delegation ----------

TEST(Delegation, ReplicatesOnlyToHigherQuality) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<DelegationRouter>());
  // Node 1 met the destination recently -> higher quality.
  world.add_node(scripted({{0.0, {105.0, 0.0}},
                           {10.0, {105.0, 0.0}},
                           {20.0, {5.0, 0.0}},
                           {400.0, {5.0, 0.0}}}),
                 std::make_unique<DelegationRouter>());
  world.add_node(pinned({110.0, 0.0}), std::make_unique<DelegationRouter>());
  world.run(15.0);
  world.inject_message(make_message(0, 0, 2));
  world.run(30.0);
  EXPECT_TRUE(world.buffer_of(1).has(0));
  EXPECT_TRUE(world.buffer_of(0).has(0));  // replication: source keeps its copy
}

TEST(Delegation, NoForwardToEqualQuality) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<DelegationRouter>());
  world.add_node(pinned({5.0, 0.0}), std::make_unique<DelegationRouter>());
  world.add_node(pinned({2000.0, 0.0}), std::make_unique<DelegationRouter>());
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  EXPECT_FALSE(world.buffer_of(1).has(0));  // both qualities are -inf
}

TEST(Delegation, LevelRatchetsUp) {
  // After delegating to a good peer, an equally good later peer must NOT
  // receive a copy (the level already matched its quality).
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), std::make_unique<DelegationRouter>());
  // Peers 1 and 2 both met destination 3 at t~10, then visit node 0 in turn.
  world.add_node(scripted({{0.0, {205.0, 0.0}},
                           {10.0, {205.0, 0.0}},
                           {30.0, {5.0, 0.0}},
                           {60.0, {5.0, 0.0}},
                           {70.0, {400.0, 400.0}},
                           {500.0, {400.0, 400.0}}}),
                 std::make_unique<DelegationRouter>());
  world.add_node(scripted({{0.0, {210.0, 0.0}},
                           {10.0, {210.0, 0.0}},
                           {100.0, {5.0, 0.0}},
                           {500.0, {5.0, 0.0}}}),
                 std::make_unique<DelegationRouter>());
  world.add_node(pinned({207.0, 0.0}), std::make_unique<DelegationRouter>());
  world.run(20.0);  // peers 1,2 meet destination 3
  world.inject_message(make_message(0, 0, 3));
  world.run(55.0);  // peer 1 visits: delegation happens, level = ~t of 1&3 meeting
  const bool delegated_to_1 = world.buffer_of(1).has(0);
  world.run(60.0);  // peer 2 visits with similar (not higher) quality
  EXPECT_TRUE(delegated_to_1);
  // Peer 2's quality (last met 3 at ~t<=20) is older than peer 1's level
  // set at the same era; since it is not strictly greater, no new copy.
  EXPECT_FALSE(world.buffer_of(2).has(0));
}

}  // namespace
}  // namespace dtn::routing
