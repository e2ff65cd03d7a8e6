// Kinetic event-kernel differential: `WorldConfig::event_kernel = true`
// must be observably INERT. The calendar-driven advance skips steps where
// provably nothing happens, but every observable action (link up/down,
// traffic, transfer progress, TTL sweep, router ticks) stays quantized to
// the step_dt grid — so a full community scenario, for EVERY protocol in
// the repository, must produce bit-identical metrics with the kernel on
// and off. Fallback paths (bus/custom movement) must decline the kernel and
// still match.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/community_detection.hpp"
#include "harness/scenario.hpp"
#include "mobility/community_movement.hpp"
#include "routing/factory.hpp"
#include "sim/world.hpp"
#include "test_support.hpp"

namespace dtn::sim {
namespace {

struct RunSnapshot {
  std::int64_t created = 0;
  std::int64_t delivered = 0;
  std::int64_t relayed = 0;
  std::int64_t transfers_started = 0;
  std::int64_t transfers_aborted = 0;
  std::int64_t dropped = 0;
  std::int64_t expired = 0;
  std::int64_t control_bytes = 0;
  std::int64_t contact_events = 0;
  std::int64_t steps = 0;
  double latency_mean = 0.0;
  double goodput = 0.0;
  double hop_count_mean = 0.0;
};

RunSnapshot snapshot(const World& world) {
  RunSnapshot s;
  s.created = world.metrics().created();
  s.delivered = world.metrics().delivered();
  s.relayed = world.metrics().relayed();
  s.transfers_started = world.metrics().transfers_started();
  s.transfers_aborted = world.metrics().transfers_aborted();
  s.dropped = world.metrics().dropped();
  s.expired = world.metrics().expired();
  s.control_bytes = world.metrics().control_bytes();
  s.contact_events = world.contact_events();
  s.steps = world.step_count();
  s.latency_mean = world.metrics().latency_mean();
  s.goodput = world.metrics().goodput();
  s.hop_count_mean = world.metrics().hop_count_mean();
  return s;
}

void expect_bit_identical(const RunSnapshot& a, const RunSnapshot& b) {
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.relayed, b.relayed);
  EXPECT_EQ(a.transfers_started, b.transfers_started);
  EXPECT_EQ(a.transfers_aborted, b.transfers_aborted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_EQ(a.contact_events, b.contact_events);
  EXPECT_EQ(a.steps, b.steps);
  // Doubles compared with EXPECT_EQ on purpose: the contract is
  // bit-identical, not statistically equivalent.
  EXPECT_EQ(a.latency_mean, b.latency_mean);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.hop_count_mean, b.hop_count_mean);
}

struct CommunityCase {
  int node_count = 24;
  int communities = 3;
  double world_size_m = 900.0;
  double duration_s = 1500.0;
  std::uint64_t seed = 11;
  std::string protocol = "Epidemic";
};

/// Builds the community scenario of world_reuse_test directly on `world`:
/// band-tiled CommunityMovement homes (kinetic-capable lanes) + traffic
/// with a full TTL window.
void build_community(World& world, const CommunityCase& c) {
  const double band = c.world_size_m / static_cast<double>(c.communities);
  std::vector<int> cid(static_cast<std::size_t>(c.node_count));
  for (int v = 0; v < c.node_count; ++v) cid[static_cast<std::size_t>(v)] = v % c.communities;
  auto communities = std::make_shared<const core::CommunityTable>(cid);
  routing::ProtocolConfig protocol;
  protocol.name = c.protocol;
  protocol.copies = 6;
  protocol.communities = communities;
  for (int v = 0; v < c.node_count; ++v) {
    const int community = cid[static_cast<std::size_t>(v)];
    mobility::CommunityMovementParams mp;
    mp.world_min = {0.0, 0.0};
    mp.world_max = {c.world_size_m, c.world_size_m};
    mp.home_min = {band * community, 0.0};
    mp.home_max = {band * (community + 1), c.world_size_m};
    world.add_node(mp, routing::create_router(protocol));
  }
  TrafficParams traffic;
  traffic.ttl = 600.0;
  traffic.stop = c.duration_s - traffic.ttl;
  world.set_traffic(traffic);
}

/// Runs the case fixed-dt and kinetic and requires identical metric bits.
void expect_kernel_inert(const CommunityCase& c) {
  WorldConfig config;
  config.seed = c.seed;

  World fixed(config);
  build_community(fixed, c);
  fixed.run(c.duration_s);
  EXPECT_FALSE(fixed.event_kernel_used());

  config.event_kernel = true;
  World kinetic(config);
  build_community(kinetic, c);
  kinetic.run(c.duration_s);
  EXPECT_TRUE(kinetic.event_kernel_used())
      << "community lanes are closed-form; the kernel must engage";

  expect_bit_identical(snapshot(fixed), snapshot(kinetic));
}

TEST(EventKernel, BitIdenticalAcrossAllProtocolsAndSeeds) {
  for (const std::string& protocol : routing::known_protocols()) {
    for (const std::uint64_t seed : {11ull, 12ull}) {
      SCOPED_TRACE(protocol + "/seed=" + std::to_string(seed));
      CommunityCase c;
      c.protocol = protocol;
      c.seed = seed;
      expect_kernel_inert(c);
    }
  }
}

TEST(EventKernel, SparseWorldStillBitIdentical) {
  // The kernel's reason to exist: a large sparse field where almost every
  // fixed step is dead time. Small-n proxy here (the bench covers scale):
  // few nodes, big world, short radio range — contacts are rare events.
  CommunityCase c;
  c.node_count = 12;
  c.communities = 1;
  c.world_size_m = 2500.0;
  c.duration_s = 3000.0;
  c.seed = 5;
  expect_kernel_inert(c);
}

TEST(EventKernel, ContinuedRunsStayOnTheCalendar) {
  // run() in slices must behave exactly like one long run: the calendar is
  // rebuilt per run() from live World state, so slicing is observable-free.
  CommunityCase c;
  c.seed = 17;
  WorldConfig config;
  config.seed = c.seed;

  World whole(config);
  build_community(whole, c);
  whole.run(c.duration_s);

  config.event_kernel = true;
  World sliced(config);
  build_community(sliced, c);
  sliced.run(500.0);
  EXPECT_TRUE(sliced.event_kernel_used());
  sliced.run(500.0);
  sliced.run(c.duration_s - 1000.0);

  expect_bit_identical(snapshot(whole), snapshot(sliced));
}

TEST(EventKernel, ReseedKeepsTheKernelBitIdentical) {
  CommunityCase c;
  c.seed = 23;
  WorldConfig config;
  config.seed = c.seed;
  World fixed(config);
  build_community(fixed, c);
  fixed.run(c.duration_s);
  const RunSnapshot want = snapshot(fixed);

  config.event_kernel = true;
  World kinetic(config);
  build_community(kinetic, c);
  kinetic.reseed(99);  // scramble, then restore: reuse must not leak
  kinetic.run(c.duration_s);
  kinetic.reseed(c.seed);
  kinetic.run(c.duration_s);
  EXPECT_TRUE(kinetic.event_kernel_used());
  expect_bit_identical(want, snapshot(kinetic));
}

TEST(EventKernel, BusWorkloadFallsBackToFixedDt) {
  // Bus trajectories have no closed-form segment API; event_kernel = true
  // must silently decline and produce the fixed-dt bits.
  harness::ScenarioSpec spec = test::bus_spec(30);
  spec.duration_s = 1200.0;
  spec.traffic.ttl = 600.0;
  spec.seed = 7;
  spec.protocol.name = "Epidemic";
  const harness::ScenarioResult fixed = harness::run_scenario(spec);

  spec.world.event_kernel = true;
  const harness::ScenarioResult declined = harness::run_scenario(spec);

  EXPECT_EQ(fixed.metrics.created(), declined.metrics.created());
  EXPECT_EQ(fixed.metrics.delivered(), declined.metrics.delivered());
  EXPECT_EQ(fixed.metrics.relayed(), declined.metrics.relayed());
  EXPECT_EQ(fixed.contact_events, declined.contact_events);
  EXPECT_EQ(fixed.metrics.latency_mean(), declined.metrics.latency_mean());
  EXPECT_EQ(fixed.metrics.goodput(), declined.metrics.goodput());
}

}  // namespace
}  // namespace dtn::sim
