// Bit-for-bit reproducibility: identical seeds give identical runs,
// different seeds give different runs, across protocols.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "test_support.hpp"

namespace dtn::harness {
namespace {

ScenarioSpec base(const std::string& protocol, std::uint64_t seed) {
  ScenarioSpec spec = test::bus_spec(20);
  spec.duration_s = 1500.0;
  spec.seed = seed;
  spec.map.params.downtown.rows = 6;
  spec.map.params.downtown.cols = 8;
  spec.map.params.downtown.districts = 2;
  spec.map.params.downtown.routes_per_district = 2;
  spec.protocol.name = protocol;
  spec.protocol.copies = 6;
  return spec;
}

class DeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismTest, SameSeedSameMetrics) {
  const auto a = run_scenario(base(GetParam(), 11));
  const auto b = run_scenario(base(GetParam(), 11));
  EXPECT_EQ(a.metrics.created(), b.metrics.created());
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered());
  EXPECT_EQ(a.metrics.relayed(), b.metrics.relayed());
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped());
  EXPECT_EQ(a.contact_events, b.contact_events);
  EXPECT_DOUBLE_EQ(a.metrics.latency_mean(), b.metrics.latency_mean());
  EXPECT_EQ(a.metrics.control_bytes(), b.metrics.control_bytes());
}

TEST_P(DeterminismTest, DifferentSeedDifferentRun) {
  const auto a = run_scenario(base(GetParam(), 11));
  const auto b = run_scenario(base(GetParam(), 12));
  // Contact structure differs with the seed (map + traffic + movement).
  EXPECT_NE(a.contact_events, b.contact_events);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DeterminismTest,
                         ::testing::Values("Epidemic", "SprayAndWait", "EBR", "EER",
                                           "CR", "MaxProp"));

}  // namespace
}  // namespace dtn::harness
