// CR protocol tests: Algorithms 2-4 in scripted worlds with predefined
// communities.
#include "routing/cr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "../reference_md.hpp"
#include "../test_support.hpp"
#include "mobility/random_waypoint.hpp"
#include "util/rng.hpp"

namespace dtn::routing {
namespace {

using test::make_message;
using test::pinned;
using test::scripted;
using test::test_world_config;

std::shared_ptr<const core::CommunityTable> communities(std::vector<int> cid) {
  return std::make_shared<const core::CommunityTable>(std::move(cid));
}

std::unique_ptr<CrRouter> cr(std::shared_ptr<const core::CommunityTable> table,
                             int copies = 10, double alpha = 0.28) {
  CrParams p;
  p.copies = copies;
  p.alpha = alpha;
  return std::make_unique<CrRouter>(p, std::move(table));
}

TEST(Cr, HandsAllReplicasToDestinationCommunityMember) {
  // Node 0 (community 0) holds a message for node 2 (community 1); node 1
  // is also community 1 -> receives ALL replicas (Algorithm 3 line 2).
  auto table = communities({0, 1, 1});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table, 10));
  world.add_node(pinned({5.0, 0.0}), cr(table, 10));
  world.add_node(pinned({2000.0, 0.0}), cr(table, 10));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  EXPECT_FALSE(world.buffer_of(0).has(0));  // gave everything away
  ASSERT_TRUE(world.buffer_of(1).has(0));
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 10);
}

TEST(Cr, DirectDeliveryBeatsCommunityLogic) {
  auto table = communities({0, 1});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table));
  world.add_node(pinned({5.0, 0.0}), cr(table));
  world.step();
  world.inject_message(make_message(0, 0, 1));
  world.run(2.0);
  EXPECT_EQ(world.metrics().delivered(), 1);
}

TEST(Cr, InterCommunitySplitWhenNeitherInDestinationCommunity) {
  // Nodes 0, 1 in community 0; destination 2 in community 1 (far away).
  // Fresh contact, both ENECs zero -> degenerate half split.
  auto table = communities({0, 0, 1});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table, 10));
  world.add_node(pinned({5.0, 0.0}), cr(table, 10));
  world.add_node(pinned({2000.0, 0.0}), cr(table, 10));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  ASSERT_TRUE(world.buffer_of(1).has(0));
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 5);
  EXPECT_EQ(world.buffer_of(0).find(0)->replicas, 5);
}

TEST(Cr, IntraCommunityOnlyBetweenSameCommunity) {
  // Source is IN the destination community; encounter is outside it:
  // Algorithm 4 line 1 forbids handing the message out.
  auto table = communities({0, 1, 0});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table, 10));
  world.add_node(pinned({5.0, 0.0}), cr(table, 10));   // community 1
  world.add_node(pinned({2000.0, 0.0}), cr(table, 10));  // dst, community 0
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  EXPECT_FALSE(world.buffer_of(1).has(0));
  EXPECT_TRUE(world.buffer_of(0).has(0));
}

TEST(Cr, IntraCommunitySplitBetweenMembers) {
  auto table = communities({0, 0, 0});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table, 10));
  world.add_node(pinned({5.0, 0.0}), cr(table, 10));
  world.add_node(pinned({2000.0, 0.0}), cr(table, 10));  // dst in same community
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  ASSERT_TRUE(world.buffer_of(1).has(0));
  EXPECT_EQ(world.buffer_of(1).find(0)->replicas, 5);  // degenerate half split
}

TEST(Cr, SingleReplicaInterForwardsToBetterCommunityFinder) {
  // Node 1 periodically visits the destination community (node 3 in c1);
  // node 0 never does. P_0c < P_1c -> forward the single copy.
  auto table = communities({0, 0, 1, 1});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table, 1));
  std::vector<std::pair<double, geo::Vec2>> kf;
  for (int k = 0; k < 8; ++k) {
    kf.push_back({k * 60.0, {5.0, 0.0}});
    kf.push_back({k * 60.0 + 15.0, {5.0, 0.0}});
    kf.push_back({k * 60.0 + 30.0, {400.0, 0.0}});
    kf.push_back({k * 60.0 + 45.0, {400.0, 0.0}});
  }
  kf.push_back({480.0, {5.0, 0.0}});
  kf.push_back({700.0, {5.0, 0.0}});
  world.add_node(scripted(std::move(kf)), cr(table, 1));
  world.add_node(pinned({5000.0, 0.0}), cr(table, 1));  // destination, c1, far
  world.add_node(pinned({405.0, 0.0}), cr(table, 1));   // c1 member node 1 visits
  world.run(470.0);
  world.inject_message(make_message(0, 0, 2));
  world.run(120.0);
  EXPECT_TRUE(world.buffer_of(1).has(0) || world.metrics().delivered() == 1);
  EXPECT_FALSE(world.buffer_of(0).has(0));
}

TEST(Cr, SingleReplicaNotForwardedToEqualFinder) {
  auto table = communities({0, 0, 1});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table, 1));
  world.add_node(pinned({5.0, 0.0}), cr(table, 1));
  world.add_node(pinned({2000.0, 0.0}), cr(table, 1));
  world.step();
  world.inject_message(make_message(0, 0, 2));
  world.run(2.0);
  // Both P_ic = P_jc = 0: strict inequality fails, copy stays.
  EXPECT_TRUE(world.buffer_of(0).has(0));
  EXPECT_FALSE(world.buffer_of(1).has(0));
}

TEST(Cr, EstimatorAccessorsConsistent) {
  auto table = communities({0, 0, 1, 1});
  sim::World world(test_world_config());
  auto router0 = cr(table);
  CrRouter* r0 = router0.get();
  world.add_node(pinned({0.0, 0.0}), std::move(router0));
  std::vector<std::pair<double, geo::Vec2>> kf;
  for (int k = 0; k < 6; ++k) {
    kf.push_back({k * 50.0, {5.0, 0.0}});
    kf.push_back({k * 50.0 + 10.0, {5.0, 0.0}});
    kf.push_back({k * 50.0 + 20.0, {100.0, 0.0}});
    kf.push_back({k * 50.0 + 40.0, {100.0, 0.0}});
  }
  world.add_node(scripted(std::move(kf)), cr(table));  // community 0 peer
  world.add_node(pinned({104.0, 0.0}), cr(table));     // community 1, met by 1? no: by 1's far point
  world.add_node(pinned({5000.0, 0.0}), cr(table));
  world.run(320.0);
  EXPECT_EQ(r0->community(), 0);
  // Node 0 only ever meets node 1 (community 0): ENEC over foreign
  // communities is 0, intra EEV is positive.
  EXPECT_DOUBLE_EQ(r0->enec(world.now(), 100.0), 0.0);
  EXPECT_GT(r0->intra_eev(world.now(), 100.0), 0.0);
  EXPECT_DOUBLE_EQ(r0->community_probability(1, world.now(), 100.0), 0.0);
}

TEST(Cr, IntraMemdRoutesThroughCommunityRelay) {
  // Community 0 = {0, 1, 2}: node 1 shuttles between 0 and 2. After history
  // builds, node 0's single copy for 2 should move to node 1 (lower MEMD').
  auto table = communities({0, 0, 0});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table, 1));
  std::vector<std::pair<double, geo::Vec2>> kf;
  for (int k = 0; k < 8; ++k) {
    kf.push_back({k * 60.0, {5.0, 0.0}});
    kf.push_back({k * 60.0 + 15.0, {5.0, 0.0}});
    kf.push_back({k * 60.0 + 30.0, {300.0, 0.0}});
    kf.push_back({k * 60.0 + 45.0, {300.0, 0.0}});
  }
  kf.push_back({480.0, {5.0, 0.0}});
  kf.push_back({700.0, {5.0, 0.0}});
  world.add_node(scripted(std::move(kf)), cr(table, 1));
  world.add_node(pinned({305.0, 0.0}), cr(table, 1));
  world.run(470.0);
  world.inject_message(make_message(0, 0, 2));
  world.run(150.0);
  EXPECT_TRUE(world.metrics().delivered() == 1 || world.buffer_of(1).has(0));
}

TEST(Cr, ControlOverheadLowerThanEerStyleFullExchange) {
  // Same-community contacts exchange only community-sized MI rows; the
  // charged control bytes must stay below a full n-sized exchange would be.
  auto table = communities({0, 0, 1, 1, 1, 1, 1, 1});
  sim::World world(test_world_config());
  world.add_node(pinned({0.0, 0.0}), cr(table));
  world.add_node(pinned({5.0, 0.0}), cr(table));
  for (int i = 2; i < 8; ++i) {
    world.add_node(pinned({3000.0 + i * 50.0, 0.0}), cr(table));
  }
  world.step();
  world.step();
  // Community 0 has 2 members: each exchanged row charges 2*8+8 = 24 bytes
  // (vs 8*8+8 = 72 for a full row). Bound: summary vectors (0 messages) +
  // at most 2 rows each way.
  EXPECT_LE(world.metrics().control_bytes(), 2 * 2 * 24 + 64);
}

// MEMD' differential: CrRouter::intra_memd (the sparse kernel over a
// node-indexed view of MI') against the m×m reference it replaced
// (build_md_intra + dense Dijkstra), bit for bit, on the MI' and contact
// histories of a random community world. Also asserts the invariant the
// node-indexed view relies on: MI' holds rows and finite columns of the
// router's own community only.
TEST(Cr, IntraMemdMatchesMemberIndexedReference) {
  constexpr int kNodes = 30;
  util::Pcg32 assign(12, 3);
  std::vector<int> cid(kNodes);
  for (int v = 0; v < kNodes; ++v) {
    cid[static_cast<std::size_t>(v)] = v < 3 ? v : static_cast<int>(assign.uniform_int(0, 2));
  }
  const auto table = communities(cid);
  sim::World world(test_world_config(23));
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  move.world_max = {110.0, 110.0};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  std::vector<CrRouter*> routers;
  for (int v = 0; v < kNodes; ++v) {
    auto router = cr(table, 2);
    routers.push_back(router.get());
    world.add_node(move, std::move(router));
  }
  world.set_traffic(sim::TrafficParams{});
  std::size_t compared = 0;
  for (int checkpoint = 0; checkpoint < 6; ++checkpoint) {
    world.run(250.0);
    // A bucket no router has queried yet, so every cache restarts at t.
    const double t = std::floor(world.now()) + 1.5;
    for (sim::NodeIdx self = 0; self < kNodes; ++self) {
      CrRouter& router = *routers[static_cast<std::size_t>(self)];
      const int own = router.community();
      const core::MiMatrix* mi = router.mi_intra();
      ASSERT_NE(mi, nullptr);
      for (sim::NodeIdx i = 0; i < kNodes; ++i) {
        const double* row = mi->row_data(i);
        if (row == nullptr) continue;
        ASSERT_EQ(table->community_of(i), own) << "foreign row " << i << " at " << self;
        for (sim::NodeIdx j = 0; j < kNodes; ++j) {
          if (j != i && std::isfinite(row[j])) {
            ASSERT_EQ(table->community_of(j), own)
                << "foreign column (" << i << "," << j << ") at " << self;
          }
        }
      }
      const auto& members = table->members(own);
      const auto self_pos = static_cast<sim::NodeIdx>(
          std::find(members.begin(), members.end(), self) - members.begin());
      const std::vector<double> reference = test::dense_oracle(
          test::build_md_intra(*mi, router.history(), *table, own, self, t),
          static_cast<sim::NodeIdx>(members.size()), self_pos);
      for (sim::NodeIdx dst = 0; dst < kNodes; ++dst) {
        const auto at = std::find(members.begin(), members.end(), dst);
        const double expected =
            at == members.end() ? std::numeric_limits<double>::infinity()
                                : reference[static_cast<std::size_t>(at - members.begin())];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(router.intra_memd(dst, t)),
                  std::bit_cast<std::uint64_t>(expected))
            << "checkpoint " << checkpoint << " self " << self << " dst " << dst;
        if (std::isfinite(expected) && dst != self) ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100u);  // the world produced real multi-hop MI'
}

}  // namespace
}  // namespace dtn::routing
