// EER protocol tests: Algorithm 1 behaviour end-to-end in scripted worlds.
#include "routing/eer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "../test_support.hpp"

namespace dtn::routing {
namespace {

using test::make_message;
using test::pinned;
using test::scripted;
using test::test_world_config;

std::unique_ptr<EerRouter> eer(int copies = 10, double alpha = 0.28) {
  EerParams p;
  p.copies = copies;
  p.alpha = alpha;
  return std::make_unique<EerRouter>(p);
}

/// Keyframes oscillating between `near` and `far` with the given period;
/// the node sits at `near` for `dwell` seconds each period.
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

TEST(Eer, InitialReplicasIsLambda) {
  EXPECT_EQ(eer(6)->initial_replicas(), 6);
  EXPECT_EQ(eer(12)->initial_replicas(), 12);
}

TEST(Eer, HistoryBuildsFromContacts) {
  sim::World world(test_world_config());
  auto router0 = eer();
  EerRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(scripted(oscillate({5.0, 0.0}, {100.0, 0.0}, 40.0, 10.0, 5)), eer());
  world.run(200.0);
  const core::PairHistory* ph = r0->history().pair(1);
  ASSERT_NE(ph, nullptr);
  EXPECT_GE(ph->intervals.size(), 3u);
  // Contacts recur every ~40 s.
  EXPECT_NEAR(ph->average_interval(), 40.0, 5.0);
}

TEST(Eer, EevReflectsContactRate) {
  sim::World world(test_world_config());
  auto router0 = eer();
  EerRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(scripted(oscillate({5.0, 0.0}, {100.0, 0.0}, 40.0, 10.0, 8)), eer());
  world.run(330.0);
  // τ = 60 comfortably covers the ~40 s meeting interval: expect EEV near 1.
  EXPECT_GT(r0->eev(world.now(), 60.0), 0.5);
  // τ = 1 s covers almost nothing.
  EXPECT_LT(r0->eev(world.now(), 1.0), 0.5);
}

TEST(Eer, MiExchangeConvergesOnContact) {
  sim::World world(test_world_config());
  auto router0 = eer();
  auto router1 = eer();
  EerRouter* r0 = router0.get();
  EerRouter* r1 = router1.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(scripted(oscillate({5.0, 0.0}, {100.0, 0.0}, 40.0, 10.0, 5)),
                 std::move(router1));
  world.run(200.0);
  // Both have their own rows; after merges each sees the other's row.
  EXPECT_LT(r0->mi().get(1, 0), core::MiMatrix::kUnknown);
  EXPECT_LT(r1->mi().get(0, 1), core::MiMatrix::kUnknown);
  // r0's view of row 1 may lag by the final contact (the merge runs before
  // the peer refreshes its own row within the same contact): near-equal.
  EXPECT_NEAR(r0->mi().get(1, 0), r1->mi().get(1, 0), 1.0);
}

TEST(Eer, MultiReplicaSplitFavorsBusierNode) {
  // Node 1 meets many partners (high EEV); node 0 is isolated apart from
  // the rendezvous. Splitting 10 replicas should give node 1 the majority.
  sim::World world(test_world_config());
  world.add_node(scripted({{0.0, {-1000.0, 0.0}},
                           {398.0, {-1000.0, 0.0}},
                           {400.0, {5.0, 0.0}},
                           {600.0, {5.0, 0.0}}}),
                 eer(10));
  // Node 1 oscillates among nodes 2 and 3 frequently, then waits at origin.
  std::vector<std::pair<double, geo::Vec2>> kf;
  for (int k = 0; k < 10; ++k) {
    kf.push_back({k * 30.0, {500.0, 0.0}});
    kf.push_back({k * 30.0 + 10.0, {500.0, 0.0}});
    kf.push_back({k * 30.0 + 15.0, {560.0, 0.0}});
    kf.push_back({k * 30.0 + 25.0, {560.0, 0.0}});
  }
  kf.push_back({330.0, {0.0, 0.0}});
  kf.push_back({600.0, {0.0, 0.0}});
  world.add_node(scripted(std::move(kf)), eer(10));
  world.add_node(pinned({505.0, 0.0}), eer(10));
  world.add_node(pinned({565.0, 0.0}), eer(10));
  world.add_node(pinned({-5000.0, 0.0}), eer(10));  // unreachable destination

  world.run(399.0);
  world.inject_message(make_message(0, 0, 4));
  world.run(100.0);  // nodes 0 and 1 in contact around t=400

  const auto* at0 = world.buffer_of(0).find(0);
  const auto* at1 = world.buffer_of(1).find(0);
  ASSERT_NE(at1, nullptr);
  const int r1_replicas = at1->replicas;
  const int r0_replicas = at0 != nullptr ? at0->replicas : 0;
  EXPECT_EQ(r0_replicas + r1_replicas, 10);
  EXPECT_GT(r1_replicas, r0_replicas);
}

TEST(Eer, DegenerateSplitIsBinaryHalf) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), eer(10));
  world.add_node(pinned({5.0, 0.0}), eer(10));
  world.add_node(pinned({2000.0, 0.0}), eer(10));
  world.step();  // first-ever contact: no intervals -> EEVs both 0
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  const auto* at1 = world.buffer_of(1).find(0);
  ASSERT_NE(at1, nullptr);
  EXPECT_EQ(at1->replicas, 5);
  EXPECT_EQ(world.buffer_of(0).find(0)->replicas, 5);
}

TEST(Eer, DirectDeliveryOnContactWithDestination) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), eer(10));
  world.add_node(pinned({5.0, 0.0}), eer(10));
  world.step();
  world.inject_message(make_message(0, 0, 1));
  world.run(2.0);
  EXPECT_EQ(world.metrics().delivered(), 1);
}

TEST(Eer, SingleReplicaForwardsToLowerMemd) {
  // Node 1 meets the destination (2) periodically; node 0 never does.
  // With a single replica, MEMD(0,2)=inf > MEMD(1,2) -> forward to 1.
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), eer(1));
  world.add_node(scripted(oscillate({300.0, 0.0}, {5.0, 0.0}, 60.0, 20.0, 8)), eer(1));
  world.add_node(pinned({305.0, 0.0}), eer(1));
  world.run(420.0);
  world.inject_message(make_message(0, 0, 2));
  world.run(120.0);
  // The copy must have left node 0 toward node 1 (or already delivered).
  const bool delivered = world.metrics().delivered() == 1;
  EXPECT_TRUE(delivered || world.buffer_of(1).has(0));
  EXPECT_FALSE(world.buffer_of(0).has(0));
}

TEST(Eer, SingleReplicaHeldWhenPeerIsWorse) {
  // Node 0 meets the destination periodically; node 1 never does. The
  // single copy must stay at node 0 when they meet.
  sim::World world(test_world_config());
  world.add_node(scripted(oscillate({300.0, 0.0}, {5.0, 0.0}, 60.0, 20.0, 8)), eer(1));
  world.add_node(pinned({0.0, 0.0}), eer(1));
  world.add_node(pinned({305.0, 0.0}), eer(1));
  world.run(420.0);
  // Inject at node 0 while it is away from the destination.
  world.inject_message(make_message(0, 0, 2));
  world.run(200.0);
  EXPECT_FALSE(world.buffer_of(1).has(0));
}

TEST(Eer, MemdDropsWithElapsedTimeForPeriodicPair) {
  sim::World world(test_world_config());
  auto router0 = eer();
  EerRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  world.add_node(scripted(oscillate({5.0, 0.0}, {100.0, 0.0}, 50.0, 10.0, 8)), eer());
  world.run(420.0);
  const double t = world.now();
  const double memd_now = r0->memd(1, t);
  const double memd_later = r0->memd(1, t + 20.0);
  EXPECT_LT(memd_later, memd_now + 1e-9);
}

TEST(Eer, NoRedistributionWhenPeerAlreadyHolds) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), eer(10));
  world.add_node(pinned({5.0, 0.0}), eer(10));
  world.add_node(pinned({2000.0, 0.0}), eer(10));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(3.0);
  const long long relays_after_split = world.metrics().relayed();
  world.run(10.0);  // same contact persists: no further exchanges
  EXPECT_EQ(world.metrics().relayed(), relays_after_split);
}

TEST(Eer, ControlOverheadCharged) {
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), eer());
  world.add_node(pinned({5.0, 0.0}), eer());
  world.step();
  EXPECT_GT(world.metrics().control_bytes(), 0);
}

TEST(Eer, ContactlessRouterHasAnUnknownMi) {
  // A router that never had a contact or a message (one bus in a seed of
  // the paper's 240-bus world) must still answer mi() and memd().
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), eer());
  world.add_node(pinned({5.0, 0.0}), eer());
  auto router2 = eer();
  EerRouter* r2 = router2.get();
  world.add_node(pinned({2000.0, 0.0}), std::move(router2));
  world.run(10.0);
  const core::MiMatrix& mi = r2->mi();
  ASSERT_EQ(mi.size(), 3);
  EXPECT_EQ(mi.version(), 0u);
  for (core::NodeIdx i = 0; i < 3; ++i) {
    EXPECT_EQ(mi.row_data(i), nullptr);
    EXPECT_TRUE(std::isinf(mi.row_time(i)));
    for (core::NodeIdx j = 0; j < 3; ++j) {
      EXPECT_EQ(mi.get(i, j), i == j ? 0.0 : core::MiMatrix::kUnknown);
    }
  }
  EXPECT_TRUE(std::isinf(r2->memd(0, world.now())));
  EXPECT_DOUBLE_EQ(r2->memd(2, world.now()), 0.0);
}

}  // namespace
}  // namespace dtn::routing
