// Cross-run World reuse differential: the PR-3 reuse paths must be
// observably inert for EVERY protocol in the repository.
//
//  - reset()+rebuild (ScenarioRunner): one World re-used across a
//    12-protocol x 2-seed community-scenario grid, each run compared
//    bit-for-bit against a fresh World, in the style of the PR-2 buffer
//    differential.
//  - reseed(): the same node set restarted under a new seed — exercises
//    Router::reset() of every stateful protocol (PRoPHET tables, MaxProp
//    likelihoods/acks, EER/CR histories + MI matrices + MEMD caches, EBR
//    windows, focus timers, delegation levels) plus in-place re-init of
//    movement lanes, buffers, traffic, and metrics.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "mobility/community_movement.hpp"
#include "routing/factory.hpp"
#include "sim/world.hpp"
#include "test_support.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec community_base(const std::string& protocol, std::uint64_t seed) {
  ScenarioSpec spec = test::community_spec(24, 3, 900.0);
  spec.duration_s = 1500.0;
  spec.seed = seed;
  spec.traffic.ttl = 600.0;
  spec.protocol.name = protocol;
  spec.protocol.copies = 6;
  return spec;
}

void expect_same_run(const ScenarioResult& a, const ScenarioResult& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.metrics.created(), b.metrics.created());
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered());
  EXPECT_EQ(a.metrics.relayed(), b.metrics.relayed());
  EXPECT_EQ(a.metrics.transfers_started(), b.metrics.transfers_started());
  EXPECT_EQ(a.metrics.transfers_aborted(), b.metrics.transfers_aborted());
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped());
  EXPECT_EQ(a.metrics.expired(), b.metrics.expired());
  EXPECT_EQ(a.metrics.control_bytes(), b.metrics.control_bytes());
  EXPECT_EQ(a.contact_events, b.contact_events);
  EXPECT_EQ(a.metrics.latency_mean(), b.metrics.latency_mean());
  EXPECT_EQ(a.metrics.goodput(), b.metrics.goodput());
  EXPECT_EQ(a.metrics.hop_count_mean(), b.metrics.hop_count_mean());
}

TEST(WorldReuse, RebuiltWorldMatchesFreshAcrossAllProtocolsAndSeeds) {
  ScenarioRunner runner;  // ONE world for all 12 protocols x 2 seeds
  for (const std::string& protocol : routing::known_protocols()) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      const ScenarioSpec spec = community_base(protocol, seed);
      const ScenarioResult fresh = run_scenario(spec);
      const ScenarioResult reused = runner.run(spec);
      expect_same_run(fresh, reused,
                      protocol + "/seed=" + std::to_string(seed));
    }
  }
}

/// Builds the single-group community spec directly on `world` (fresh or
/// reused via reset()); mirrors what ScenarioRunner::run builds for it so
/// reseed() can be exercised on a structure that is seed-independent.
void build_community_world(sim::World& world, const ScenarioSpec& spec,
                           bool add_traffic = true) {
  const int l = spec.communities.count;
  const double size = spec.map.params.width;
  const double band = size / static_cast<double>(l);
  const int nodes = spec.node_count();
  std::vector<int> cid(static_cast<std::size_t>(nodes));
  for (int v = 0; v < nodes; ++v) cid[static_cast<std::size_t>(v)] = v % l;
  auto communities = std::make_shared<const core::CommunityTable>(cid);
  routing::ProtocolConfig protocol = spec.protocol;
  protocol.communities = communities;
  for (int v = 0; v < nodes; ++v) {
    const int c = cid[static_cast<std::size_t>(v)];
    mobility::CommunityMovementParams mp;
    mp.world_min = {0.0, 0.0};
    mp.world_max = {size, size};
    mp.home_min = {band * c, 0.0};
    mp.home_max = {band * (c + 1), size};
    mp.home_prob = spec.groups[0].params.community.home_prob;
    world.add_node(mp, routing::create_router(protocol));
  }
  if (!add_traffic) return;
  sim::TrafficParams traffic = spec.traffic;
  traffic.stop = spec.duration_s - traffic.ttl;
  world.set_traffic(traffic);
}

TEST(WorldReuse, ReseedMatchesFreshBuildAcrossAllProtocols) {
  for (const std::string& protocol : routing::known_protocols()) {
    SCOPED_TRACE(protocol);
    const ScenarioSpec first = community_base(protocol, 21);
    const ScenarioSpec second = community_base(protocol, 22);

    // Reference: two fresh worlds.
    const ScenarioResult fresh_a = run_scenario(first);
    const ScenarioResult fresh_b = run_scenario(second);

    // Reused: one world, built once, reseeded between the runs — same
    // router INSTANCES carried across, cleared only by Router::reset().
    sim::WorldConfig config = first.world;
    config.seed = first.seed;
    sim::World world(config);
    build_community_world(world, first);
    world.run(first.duration_s);
    EXPECT_EQ(world.metrics().created(), fresh_a.metrics.created());
    EXPECT_EQ(world.metrics().delivered(), fresh_a.metrics.delivered());
    EXPECT_EQ(world.metrics().relayed(), fresh_a.metrics.relayed());
    EXPECT_EQ(world.contact_events(), fresh_a.contact_events);
    EXPECT_EQ(world.metrics().latency_mean(), fresh_a.metrics.latency_mean());

    world.reseed(second.seed);
    world.run(second.duration_s);
    EXPECT_EQ(world.metrics().created(), fresh_b.metrics.created());
    EXPECT_EQ(world.metrics().delivered(), fresh_b.metrics.delivered());
    EXPECT_EQ(world.metrics().relayed(), fresh_b.metrics.relayed());
    EXPECT_EQ(world.metrics().dropped(), fresh_b.metrics.dropped());
    EXPECT_EQ(world.metrics().expired(), fresh_b.metrics.expired());
    EXPECT_EQ(world.metrics().control_bytes(), fresh_b.metrics.control_bytes());
    EXPECT_EQ(world.contact_events(), fresh_b.contact_events);
    EXPECT_EQ(world.metrics().latency_mean(), fresh_b.metrics.latency_mean());
    EXPECT_EQ(world.metrics().goodput(), fresh_b.metrics.goodput());
  }
}

TEST(WorldReuse, ReseedToSameSeedReproducesTheRun) {
  const ScenarioSpec spec = community_base("EER", 31);
  sim::WorldConfig config = spec.world;
  config.seed = spec.seed;
  sim::World world(config);
  build_community_world(world, spec);
  // Per-group buckets ride along: reseed() keeps the node set, so the
  // installed map must survive it (counters re-zeroed); a structure-
  // changing reset() must uninstall it.
  std::vector<int> node_group(static_cast<std::size_t>(spec.node_count()));
  for (int v = 0; v < spec.node_count(); ++v) {
    node_group[static_cast<std::size_t>(v)] = v % 2;
  }
  world.metrics().set_groups(node_group, 2);
  world.run(spec.duration_s);
  const auto created = world.metrics().created();
  const auto delivered = world.metrics().delivered();
  const auto relayed = world.metrics().relayed();
  const auto contacts = world.contact_events();
  const double latency = world.metrics().latency_mean();
  ASSERT_TRUE(world.metrics().has_groups());
  const auto g0_created = world.metrics().group_created(0);
  const auto g1_created = world.metrics().group_created(1);
  EXPECT_EQ(g0_created + g1_created, created);

  world.reseed(spec.seed);
  world.run(spec.duration_s);
  EXPECT_EQ(world.metrics().created(), created);
  EXPECT_EQ(world.metrics().delivered(), delivered);
  EXPECT_EQ(world.metrics().relayed(), relayed);
  EXPECT_EQ(world.contact_events(), contacts);
  EXPECT_EQ(world.metrics().latency_mean(), latency);
  ASSERT_TRUE(world.metrics().has_groups());
  EXPECT_EQ(world.metrics().group_created(0), g0_created);
  EXPECT_EQ(world.metrics().group_created(1), g1_created);

  world.reset(config);
  EXPECT_FALSE(world.metrics().has_groups());
}

TEST(WorldReuse, ReseedDirectlyAfterShrinkingRebuildFinalizesFirst) {
  // reseed() must self-heal a pending rebuild (like run()/step() do): a
  // reset()+add_node rebuild to FEWER nodes followed immediately by
  // reseed() — no run in between — must trim the surplus slots, not index
  // the cleared movement lanes out of bounds.
  ScenarioSpec big = community_base("Epidemic", 51);
  big.groups[0].count = 30;
  ScenarioSpec small = big;
  small.groups[0].count = 12;

  sim::WorldConfig config = big.world;
  config.seed = big.seed;
  sim::World world(config);
  build_community_world(world, big);
  world.run(big.duration_s);

  sim::WorldConfig small_config = small.world;
  small_config.seed = small.seed;
  world.reset(small_config);
  // No set_traffic yet, so the rebuild (12 of 30 slots) is still pending
  // when reseed() runs.
  build_community_world(world, small, /*add_traffic=*/false);
  world.reseed(52);
  sim::TrafficParams traffic = small.traffic;
  traffic.stop = small.duration_s - traffic.ttl;
  world.set_traffic(traffic);  // derives from config_.seed == 52
  world.run(small.duration_s);

  ScenarioSpec fresh_spec = small;
  fresh_spec.seed = 52;
  const ScenarioResult fresh = run_scenario(fresh_spec);
  EXPECT_EQ(world.node_count(), 12);
  EXPECT_EQ(world.metrics().created(), fresh.metrics.created());
  EXPECT_EQ(world.metrics().delivered(), fresh.metrics.delivered());
  EXPECT_EQ(world.metrics().relayed(), fresh.metrics.relayed());
  EXPECT_EQ(world.contact_events(), fresh.contact_events);
}

TEST(WorldReuse, RebuildAcrossDifferentNodeCountsAndBufferSizes) {
  // Shrinking and growing rebuilds (including a buffer-capacity change)
  // must still match fresh worlds exactly.
  ScenarioRunner runner;
  for (const int nodes : {30, 12, 40}) {
    for (const std::int64_t buffer : {std::int64_t{1} << 20, std::int64_t{128} * 1024}) {
      ScenarioSpec spec = community_base("Epidemic", 41);
      spec.groups[0].count = nodes;
      spec.world.buffer_bytes = buffer;
      const ScenarioResult fresh = run_scenario(spec);
      const ScenarioResult reused = runner.run(spec);
      expect_same_run(fresh, reused,
                      "n=" + std::to_string(nodes) + "/buf=" + std::to_string(buffer));
    }
  }
}

}  // namespace
}  // namespace dtn::harness
