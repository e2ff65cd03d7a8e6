// End-to-end community pipeline: contact warm-up -> detection -> CR with
// the detected table (the ablation_communities bench path), plus trace
// record/replay round trips.
#include <gtest/gtest.h>

#include <cstdio>

#include "geo/map_gen.hpp"
#include "geo/trace.hpp"
#include "harness/scenario.hpp"
#include "mobility/bus_movement.hpp"
#include "mobility/trace_playback.hpp"
#include "routing/factory.hpp"
#include "test_support.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec small_bus(std::uint64_t seed = 5) {
  ScenarioSpec spec = test::bus_spec(18);
  spec.duration_s = 2000.0;
  spec.seed = seed;
  spec.map.params.downtown.rows = 6;
  spec.map.params.downtown.cols = 9;
  spec.map.params.downtown.districts = 3;
  spec.map.params.downtown.routes_per_district = 2;
  spec.map.params.downtown.hub_visit_prob = 0.5;
  spec.protocol.copies = 6;
  return spec;
}

TEST(CommunityPipeline, DetectionFindsMultipleCommunities) {
  const ScenarioSpec spec = small_bus();
  core::DetectionParams detection;
  detection.familiar_threshold = 3;
  const core::CommunityTable detected = detect_spec_communities(spec, detection, 1500.0);
  EXPECT_EQ(detected.node_count(), spec.node_count());
  EXPECT_GE(detected.community_count(), 1);
  EXPECT_LE(detected.community_count(), spec.node_count());
}

TEST(CommunityPipeline, DetectionIsDeterministic) {
  const ScenarioSpec spec = small_bus();
  const core::DetectionParams detection{3, 0.5};
  const core::CommunityTable a = detect_spec_communities(spec, detection, 1000.0);
  const core::CommunityTable b = detect_spec_communities(spec, detection, 1000.0);
  ASSERT_EQ(a.node_count(), b.node_count());
  for (core::NodeIdx v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.community_of(v), b.community_of(v)) << "node " << v;
  }
}

TEST(CommunityPipeline, CrRunsWithDetectedCommunities) {
  ScenarioSpec spec = small_bus();
  spec.protocol.name = "CR";
  const core::DetectionParams detection{3, 0.5};
  spec.communities_override = std::make_shared<const core::CommunityTable>(
      detect_spec_communities(spec, detection, 1500.0));
  const ScenarioResult r = run_scenario(spec);
  EXPECT_GT(r.metrics.created(), 0);
  EXPECT_GE(r.metrics.delivery_ratio(), 0.0);
  EXPECT_LE(r.metrics.delivery_ratio(), 1.0);
}

TEST(CommunityPipeline, OverrideChangesCommunityAssignment) {
  // A one-community override must behave like intra-community-only CR and
  // still run; it should also differ in relays from the ground-truth run.
  ScenarioSpec spec = small_bus();
  spec.protocol.name = "CR";
  const ScenarioResult ground = run_scenario(spec);
  std::vector<int> all_one(static_cast<std::size_t>(spec.node_count()), 0);
  spec.communities_override =
      std::make_shared<const core::CommunityTable>(all_one);
  const ScenarioResult merged = run_scenario(spec);
  EXPECT_GT(merged.metrics.created(), 0);
  // With a single community, CR degenerates to intra-community EER-style
  // routing everywhere; routing decisions (and relays) change.
  EXPECT_NE(ground.metrics.relayed(), merged.metrics.relayed());
}

TEST(TracePipeline, RecordReplayKeepsContactStructure) {
  // Record a small bus world's trajectories at 1 Hz, then replay them and
  // compare contact counts: linear interpolation at 1 Hz keeps the contact
  // structure within a modest tolerance.
  const int nodes = 10;
  const double duration = 800.0;
  geo::DowntownParams map;
  map.rows = 5;
  map.cols = 6;
  map.seed = 3;
  const geo::BusNetwork net = geo::generate_downtown(map);
  std::vector<std::shared_ptr<const geo::Polyline>> routes;
  for (const auto& r : net.routes) {
    routes.push_back(std::make_shared<const geo::Polyline>(r.line));
  }

  auto build_world = [&](bool from_trace, const geo::Trace& trace) {
    auto world = std::make_unique<sim::World>(sim::WorldConfig{.seed = 3});
    routing::ProtocolConfig proto;
    proto.name = "Epidemic";
    if (from_trace) {
      for (auto& m : mobility::TracePlayback::from_trace(trace)) {
        world->add_node(std::move(m), routing::create_router(proto));
      }
    } else {
      for (int v = 0; v < nodes; ++v) {
        world->add_node(std::make_unique<mobility::BusMovement>(
                            routes[static_cast<std::size_t>(v) % routes.size()],
                            mobility::BusParams{}),
                        routing::create_router(proto));
      }
    }
    return world;
  };

  // Pass 1: live movement, recording positions each second.
  geo::Trace trace;
  auto live = build_world(false, trace);
  for (int second = 0; second < static_cast<int>(duration); ++second) {
    for (int v = 0; v < nodes; ++v) {
      trace.samples.push_back({static_cast<double>(second), v, live->position_of(v)});
    }
    live->run(1.0);
  }
  const auto live_contacts = live->contact_events();

  // Pass 2: replay.
  trace.sort();
  auto replay = build_world(true, trace);
  replay->run(duration);
  const auto replay_contacts = replay->contact_events();

  ASSERT_GT(live_contacts, 0);
  ASSERT_GT(replay_contacts, 0);
  const double ratio = static_cast<double>(replay_contacts) /
                       static_cast<double>(live_contacts);
  EXPECT_GT(ratio, 0.5) << "replay lost too many contacts";
  EXPECT_LT(ratio, 2.0) << "replay invented too many contacts";
}

}  // namespace
}  // namespace dtn::harness
