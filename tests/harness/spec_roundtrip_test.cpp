// Spec serialization: property test that ANY spec survives the
// to_config -> parse_spec round trip bit for bit, plus targeted checks of
// the grammar (comments, whitespace, group ordering, adapters).
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "util/rng.hpp"

namespace dtn::harness {
namespace {

/// A randomized spec touching every serializable field. Values come from
/// continuous draws (full-mantissa doubles), so the round trip only holds
/// if formatting is exact (shortest-round-trip to_chars).
ScenarioSpec random_spec(util::Pcg32& rng) {
  ScenarioSpec spec;
  spec.name = "rand" + std::to_string(rng.uniform_int(0, 999999));
  spec.duration_s = rng.uniform(100.0, 20000.0);
  spec.seed = rng.next_u64();
  spec.full_ttl_window = rng.bernoulli(0.5);

  const int map_pick = static_cast<int>(rng.uniform_int(0, 2));
  if (map_pick == 0) {
    spec.map.kind = "downtown";
    spec.map.params.downtown.rows = static_cast<int>(rng.uniform_int(4, 20));
    spec.map.params.downtown.cols = static_cast<int>(rng.uniform_int(4, 20));
    spec.map.params.downtown.block_m = rng.uniform(80.0, 400.0);
    spec.map.params.downtown.jitter_frac = rng.uniform(0.0, 0.4);
    spec.map.params.downtown.districts = static_cast<int>(rng.uniform_int(2, 6));
    spec.map.params.downtown.routes_per_district = static_cast<int>(rng.uniform_int(1, 4));
    spec.map.params.downtown.anchors_per_route = static_cast<int>(rng.uniform_int(2, 5));
    spec.map.params.downtown.hub_visit_prob = rng.uniform(0.0, 1.0);
  } else if (map_pick == 1) {
    spec.map.kind = "open_field";
    spec.map.params.width = rng.uniform(200.0, 5000.0);
    spec.map.params.height = rng.uniform(200.0, 5000.0);
  } else {
    spec.map.kind = "trace";
    spec.map.params.trace_file = "some/trace_" + std::to_string(rng.uniform_int(0, 99)) +
                                 ".trace";
  }

  spec.world.step_dt = rng.uniform(0.05, 1.0);
  spec.world.radio_range = rng.uniform(5.0, 50.0);
  spec.world.bitrate_bps = rng.uniform(1e5, 1e7);
  spec.world.buffer_bytes = rng.uniform_int(1 << 16, 1 << 24);
  spec.world.ttl_sweep_interval = rng.uniform(1.0, 60.0);

  spec.traffic.interval_min = rng.uniform(5.0, 30.0);
  spec.traffic.interval_max = spec.traffic.interval_min + rng.uniform(0.0, 30.0);
  spec.traffic.start = rng.uniform(0.0, 100.0);
  spec.traffic.stop = rng.bernoulli(0.5) ? 1e18 : rng.uniform(1000.0, 10000.0);
  spec.traffic.size_bytes = rng.uniform_int(1 << 10, 1 << 20);
  spec.traffic.ttl = rng.uniform(300.0, 3000.0);
  const std::vector<sim::TrafficProfile> profiles{
      sim::TrafficProfile::kUniform, sim::TrafficProfile::kOnOff,
      sim::TrafficProfile::kDiurnal, sim::TrafficProfile::kTrace};
  spec.traffic.profile = profiles[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  spec.traffic.on_s = rng.uniform(10.0, 1000.0);
  spec.traffic.off_s = rng.uniform(0.0, 1000.0);
  spec.traffic.period_s = rng.uniform(100.0, 100000.0);
  spec.traffic.phase_s = rng.uniform(0.0, 1000.0);
  if (rng.bernoulli(0.3)) {
    spec.traffic_file =
        "some/traffic_" + std::to_string(rng.uniform_int(0, 99)) + ".trace";
  }

  const std::vector<std::string> protocols = routing::known_protocols();
  spec.protocol.name =
      protocols[static_cast<std::size_t>(rng.uniform_int(0, 11)) % protocols.size()];
  spec.protocol.copies = static_cast<int>(rng.uniform_int(1, 20));
  spec.protocol.alpha = rng.uniform(0.05, 1.0);
  spec.protocol.window = static_cast<std::size_t>(rng.uniform_int(8, 64));

  spec.communities.source = rng.bernoulli(0.5) ? "auto" : "round_robin";
  spec.communities.count = static_cast<int>(rng.uniform_int(1, 8));

  const int group_count = static_cast<int>(rng.uniform_int(1, 3));
  const std::vector<std::string> models{"bus", "random_waypoint", "community", "trace"};
  for (int g = 0; g < group_count; ++g) {
    GroupSpec group;
    group.name = "g" + std::to_string(g);
    group.model = models[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    group.count = static_cast<int>(rng.uniform_int(1, 200));
    group.params.bus.speed_min = rng.uniform(1.0, 5.0);
    group.params.bus.speed_max = rng.uniform(5.0, 20.0);
    group.params.bus.stop_spacing = rng.uniform(100.0, 1000.0);
    group.params.bus.pause_min = rng.uniform(0.0, 10.0);
    group.params.bus.pause_max = rng.uniform(10.0, 40.0);
    group.params.waypoint.speed_min = rng.uniform(0.1, 1.0);
    group.params.waypoint.speed_max = rng.uniform(1.0, 3.0);
    group.params.waypoint.pause_min = rng.uniform(0.0, 5.0);
    group.params.waypoint.pause_max = rng.uniform(5.0, 60.0);
    group.params.community.home_prob = rng.uniform(0.0, 1.0);
    group.params.community.speed_min = rng.uniform(0.1, 1.0);
    group.params.community.speed_max = rng.uniform(1.0, 3.0);
    group.params.community.pause_min = rng.uniform(0.0, 5.0);
    group.params.community.pause_max = rng.uniform(5.0, 60.0);
    spec.groups.push_back(std::move(group));
  }

  // Matrix entries over the groups just drawn (distinct (src, dst) pairs;
  // serialization keeps declaration order).
  int entries = static_cast<int>(rng.uniform_int(0, 2));
  if (entries > group_count) entries = group_count;
  for (int e = 0; e < entries; ++e) {
    TrafficEntrySpec entry;
    entry.src = spec.groups[static_cast<std::size_t>(
                                rng.uniform_int(0, group_count - 1))]
                    .name;
    entry.dst = "g" + std::to_string(e);  // e < group_count, so a real group
    entry.interval_min = rng.uniform(1.0, 20.0);
    entry.interval_max = entry.interval_min + rng.uniform(0.0, 20.0);
    entry.size_bytes = rng.uniform_int(1 << 8, 1 << 16);
    entry.weight = rng.uniform(0.1, 5.0);
    bool duplicate = false;
    for (const auto& prior : spec.traffic_matrix) {
      duplicate = duplicate || (prior.src == entry.src && prior.dst == entry.dst);
    }
    if (!duplicate) spec.traffic_matrix.push_back(std::move(entry));
  }
  return spec;
}

TEST(SpecRoundtrip, RandomSpecsSurviveSerializeParseSerialize) {
  util::Pcg32 rng(2024, 7);
  for (int trial = 0; trial < 200; ++trial) {
    const ScenarioSpec original = random_spec(rng);
    const std::string config = to_config(original);
    ScenarioSpec parsed;
    std::vector<SpecDiagnostic> diagnostics;
    ASSERT_TRUE(try_parse_spec(config, parsed, diagnostics))
        << "trial " << trial << ": "
        << (diagnostics.empty() ? "?" : diagnostics.front().message) << "\n"
        << config;
    EXPECT_EQ(to_config(parsed), config) << "trial " << trial;
  }
}

TEST(SpecRoundtrip, ParsedFieldsMatchOriginal) {
  util::Pcg32 rng(11, 3);
  const ScenarioSpec original = random_spec(rng);
  const ScenarioSpec parsed = parse_spec(to_config(original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.duration_s, original.duration_s);
  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_EQ(parsed.full_ttl_window, original.full_ttl_window);
  EXPECT_EQ(parsed.map.kind, original.map.kind);
  EXPECT_EQ(parsed.world.buffer_bytes, original.world.buffer_bytes);
  EXPECT_EQ(parsed.world.step_dt, original.world.step_dt);
  EXPECT_EQ(parsed.traffic.ttl, original.traffic.ttl);
  EXPECT_EQ(parsed.traffic.profile, original.traffic.profile);
  EXPECT_EQ(parsed.traffic.on_s, original.traffic.on_s);
  EXPECT_EQ(parsed.traffic.off_s, original.traffic.off_s);
  EXPECT_EQ(parsed.traffic.period_s, original.traffic.period_s);
  EXPECT_EQ(parsed.traffic.phase_s, original.traffic.phase_s);
  EXPECT_EQ(parsed.traffic_file, original.traffic_file);
  ASSERT_EQ(parsed.traffic_matrix.size(), original.traffic_matrix.size());
  for (std::size_t e = 0; e < parsed.traffic_matrix.size(); ++e) {
    EXPECT_EQ(parsed.traffic_matrix[e].src, original.traffic_matrix[e].src);
    EXPECT_EQ(parsed.traffic_matrix[e].dst, original.traffic_matrix[e].dst);
    EXPECT_EQ(parsed.traffic_matrix[e].interval_min,
              original.traffic_matrix[e].interval_min);
    EXPECT_EQ(parsed.traffic_matrix[e].weight, original.traffic_matrix[e].weight);
  }
  EXPECT_EQ(parsed.protocol.name, original.protocol.name);
  EXPECT_EQ(parsed.protocol.alpha, original.protocol.alpha);
  EXPECT_EQ(parsed.communities.source, original.communities.source);
  ASSERT_EQ(parsed.groups.size(), original.groups.size());
  for (std::size_t g = 0; g < parsed.groups.size(); ++g) {
    EXPECT_EQ(parsed.groups[g].name, original.groups[g].name);
    EXPECT_EQ(parsed.groups[g].model, original.groups[g].model);
    EXPECT_EQ(parsed.groups[g].count, original.groups[g].count);
  }
  EXPECT_EQ(parsed.node_count(), original.node_count());
}

TEST(SpecRoundtrip, AdapterSpecsRoundTrip) {
  BusScenarioParams bus;
  bus.node_count = 77;
  bus.duration_s = 1234.5;
  bus.protocol.name = "CR";
  const std::string bus_config = to_config(to_spec(bus));
  EXPECT_EQ(to_config(parse_spec(bus_config)), bus_config);

  CommunityScenarioParams community;
  community.node_count = 36;
  community.communities = 6;
  community.home_prob = 0.91;
  const std::string community_config = to_config(to_spec(community));
  EXPECT_EQ(to_config(parse_spec(community_config)), community_config);
}

TEST(SpecRoundtrip, CommentsAndWhitespaceAreIgnored) {
  const ScenarioSpec spec = parse_spec(
      "# full-line comment\n"
      "\n"
      "  scenario.duration   =  4000   # trailing comment\n"
      "\tscenario.seed=9\n"
      "group.walkers.model = random_waypoint\n"
      "group.walkers.count = 12   \n");
  EXPECT_EQ(spec.duration_s, 4000.0);
  EXPECT_EQ(spec.seed, 9u);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].count, 12);
}

TEST(SpecRoundtrip, GroupsKeepDeclarationOrder) {
  const ScenarioSpec spec = parse_spec(
      "map.kind = downtown\n"
      "group.buses.model = bus\n"
      "group.buses.count = 10\n"
      "group.walkers.model = random_waypoint\n"
      "group.walkers.count = 20\n"
      "group.buses.speed_max = 15\n");  // later keys address earlier groups
  ASSERT_EQ(spec.groups.size(), 2u);
  EXPECT_EQ(spec.groups[0].name, "buses");
  EXPECT_EQ(spec.groups[1].name, "walkers");
  EXPECT_EQ(spec.groups[0].params.bus.speed_max, 15.0);
  EXPECT_EQ(spec.node_count(), 30);
}

TEST(SpecRoundtrip, ApplyOverrideMatchesParserVocabulary) {
  ScenarioSpec spec = to_spec(BusScenarioParams{});
  apply_override(spec, "protocol.name", "Epidemic");
  apply_override(spec, "scenario.nodes", "55");
  apply_override(spec, "group.buses.speed_max", "10.5");
  EXPECT_EQ(spec.protocol.name, "Epidemic");
  EXPECT_EQ(spec.groups[0].count, 55);
  EXPECT_EQ(spec.groups[0].params.bus.speed_max, 10.5);
}

TEST(SpecRoundtrip, SaveAndLoadSpecFile) {
  util::Pcg32 rng(5, 5);
  const ScenarioSpec original = random_spec(rng);
  const std::string path = ::testing::TempDir() + "/roundtrip.cfg";
  ASSERT_TRUE(save_spec(path, original));
  const ScenarioSpec loaded = load_spec(path);
  EXPECT_EQ(to_config(loaded), to_config(original));
}

}  // namespace
}  // namespace dtn::harness
