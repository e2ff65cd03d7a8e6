// Integration: the bus and community scenarios end-to-end at reduced scale.
#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec small_bus(const std::string& protocol, std::uint64_t seed = 7) {
  ScenarioSpec spec = test::bus_spec(24);
  spec.duration_s = 2000.0;
  spec.seed = seed;
  spec.map.params.downtown.rows = 8;
  spec.map.params.downtown.cols = 10;
  spec.map.params.downtown.block_m = 150.0;
  spec.map.params.downtown.districts = 3;
  spec.map.params.downtown.routes_per_district = 2;
  spec.protocol.name = protocol;
  spec.protocol.copies = 6;
  return spec;
}

TEST(BusScenario, ProducesContactsAndTraffic) {
  const ScenarioResult r = run_scenario(small_bus("Epidemic"));
  EXPECT_GT(r.contact_events, 0);
  EXPECT_GT(r.metrics.created(), 0);
  EXPECT_EQ(r.protocol, "Epidemic");
  EXPECT_EQ(r.node_count, 24);
}

TEST(BusScenario, EpidemicDeliversSomething) {
  const ScenarioResult r = run_scenario(small_bus("Epidemic"));
  EXPECT_GT(r.metrics.delivered(), 0);
  EXPECT_GT(r.metrics.delivery_ratio(), 0.0);
  EXPECT_LE(r.metrics.delivery_ratio(), 1.0);
}

TEST(BusScenario, EerRunsAndDelivers) {
  const ScenarioResult r = run_scenario(small_bus("EER"));
  EXPECT_GT(r.metrics.delivered(), 0);
  EXPECT_GT(r.metrics.goodput(), 0.0);
}

TEST(BusScenario, CrRunsAndDelivers) {
  const ScenarioResult r = run_scenario(small_bus("CR"));
  EXPECT_GT(r.metrics.delivered(), 0);
}

TEST(BusScenario, CommunitiesMatchRouteDistricts) {
  // The bus group builder's "auto" assignment: node v rides route
  // v % routes, community = that route's district.
  ScenarioSpec spec = test::bus_spec(12);
  spec.map.params.downtown.districts = 3;
  spec.map.params.downtown.routes_per_district = 2;
  spec.seed = 5;
  const geo::BuiltMap map = geo::find_map_kind("downtown")->build(spec.map.params, spec.seed);
  ASSERT_TRUE(map.network.has_value());
  const geo::BusNetwork& net = *map.network;
  std::vector<int> cid;
  find_group_builder("bus")->assign_communities(GroupBuildContext{spec, map, 0, {}},
                                                spec.groups[0], cid);
  const core::CommunityTable table(std::move(cid));
  EXPECT_EQ(table.node_count(), 12);
  for (int v = 0; v < 12; ++v) {
    const auto& route = net.routes[static_cast<std::size_t>(v) % net.routes.size()];
    EXPECT_EQ(table.community_of(v), route.district);
  }
}

TEST(BusScenario, TrafficStopsBeforeTtlWindowEnds) {
  ScenarioSpec spec = small_bus("DirectDelivery");
  spec.traffic.ttl = 600.0;
  spec.duration_s = 1500.0;
  const ScenarioResult r = run_scenario(spec);
  // Expected message count ~ (1500 - 600) / 30 = 30.
  EXPECT_LE(r.metrics.created(), 40);
  EXPECT_GT(r.metrics.created(), 20);
}

TEST(CommunityScenario, RunsWithCr) {
  ScenarioSpec spec = test::community_spec(20, 4, 600.0);
  spec.duration_s = 1500.0;
  spec.world.radio_range = 30.0;
  spec.protocol.name = "CR";
  spec.protocol.copies = 4;
  spec.seed = 3;
  const ScenarioResult r = run_scenario(spec);
  EXPECT_GT(r.contact_events, 0);
  EXPECT_GT(r.metrics.created(), 0);
}

TEST(CommunityScenario, IntraCommunityContactsDominate) {
  // Verify the mobility substrate produces the community contact asymmetry
  // CR assumes: count contacts within vs across districts directly.
  ScenarioSpec spec = test::community_spec(16, 4, 800.0);
  spec.duration_s = 1200.0;
  spec.traffic.ttl = 600.0;  // full_ttl_window needs ttl < duration
  spec.groups[0].params.community.home_prob = 0.9;
  spec.world.radio_range = 25.0;
  spec.protocol.name = "Epidemic";
  const ScenarioResult r = run_scenario(spec);
  EXPECT_GT(r.contact_events, 10);
}

}  // namespace
}  // namespace dtn::harness
