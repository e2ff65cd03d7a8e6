// Golden pin of whole bus-world runs: exact metrics captured from the
// simulator for every protocol on two small-buffer workloads plus two
// long-run contact-churn cases. Any change to movement, contact
// detection, transfers, the message store, traffic, TTL sweeps or a
// router shows up as a changed integer or a changed bit of a mean.
//
//  - kSmallBuffers: 14 buses, 600 s, a message every 6-10 s with a 200 s
//    TTL against 100 KB buffers (four messages), so eviction and expiry
//    fire constantly; every registered protocol at seeds 3 and 11.
//  - kLongRun: 16 buses, 900 s, paper traffic with a 300 s TTL; Epidemic
//    and EER at seed 5.
//
// Means are compared as exact hexfloats. If a change is meant to move a
// metric, recapture the table and say why in the commit.
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "routing/factory.hpp"

namespace dtn::sim {
namespace {

enum class Workload { kSmallBuffers, kLongRun };
using Workload::kLongRun;
using Workload::kSmallBuffers;

struct Golden {
  const char* protocol;
  std::uint64_t seed;
  Workload workload;
  std::int64_t created;
  std::int64_t delivered;
  std::int64_t relayed;
  std::int64_t dropped;
  std::int64_t expired;
  std::int64_t aborted;
  std::int64_t control_bytes;
  std::int64_t contact_events;
  double latency_mean;
  double hop_count_mean;
};

// clang-format off
constexpr Golden kGolden[] = {
    // protocol, seed, workload, created, delivered, relayed, dropped,
    // expired, aborted, control_bytes, contact_events, latency, hops
    {"EER", 3, kSmallBuffers, 74, 11, 93, 34, 61, 1, 23976, 45, 0x1.b3ceac4327b99p+5, 0x1.8ba2e8ba2e8bbp+0},
    {"EER", 11, kSmallBuffers, 75, 27, 224, 93, 63, 1, 72512, 102, 0x1.4a20613fa2849p+6, 0x1.da12f684bda12p+0},
    {"CR", 3, kSmallBuffers, 74, 11, 94, 42, 58, 0, 14984, 45, 0x1.b3e14a84519dbp+5, 0x1.8ba2e8ba2e8bbp+0},
    {"CR", 11, kSmallBuffers, 75, 30, 216, 76, 58, 0, 31528, 102, 0x1.71b37ad8892e7p+6, 0x1.ddddddddddddcp+0},
    {"EBR", 3, kSmallBuffers, 74, 11, 74, 29, 54, 0, 720, 45, 0x1.b3ceac4327b9ap+5, 0x1.745d1745d1746p+0},
    {"EBR", 11, kSmallBuffers, 75, 29, 176, 65, 67, 0, 1632, 102, 0x1.61d4a3ac30effp+6, 0x1.72c234f72c236p+0},
    {"MaxProp", 3, kSmallBuffers, 74, 12, 107, 57, 62, 0, 13368, 45, 0x1.161d0378c9cc7p+6, 0x1.6aaaaaaaaaaabp+0},
    {"MaxProp", 11, kSmallBuffers, 75, 30, 360, 219, 86, 1, 47888, 102, 0x1.6b10d6a24e216p+6, 0x1.5555555555557p+0},
    {"SprayAndWait", 3, kSmallBuffers, 74, 13, 99, 44, 58, 0, 0, 45, 0x1.15920aa7d236fp+6, 0x1.b13b13b13b13bp+0},
    {"SprayAndWait", 11, kSmallBuffers, 75, 28, 243, 124, 57, 0, 0, 102, 0x1.41788c2928fa3p+6, 0x1.8000000000002p+0},
    {"SprayAndFocus", 3, kSmallBuffers, 74, 12, 100, 46, 57, 0, 10080, 45, 0x1.f2c3debdb6165p+5, 0x1.aaaaaaaaaaaabp+0},
    {"SprayAndFocus", 11, kSmallBuffers, 75, 25, 268, 134, 56, 0, 22848, 102, 0x1.38eddcb8d38e5p+6, 0x1.c28f5c28f5c28p+0},
    {"Epidemic", 3, kSmallBuffers, 74, 12, 126, 72, 64, 0, 0, 45, 0x1.f1f711f0e9499p+5, 0x1.8p+0},
    {"Epidemic", 11, kSmallBuffers, 75, 27, 397, 259, 92, 2, 0, 102, 0x1.5140a849e6298p+6, 0x1.71c71c71c71c6p+0},
    {"DirectDelivery", 3, kSmallBuffers, 74, 8, 8, 7, 36, 0, 0, 45, 0x1.c6cdace6a39efp+5, 0x1p+0},
    {"DirectDelivery", 11, kSmallBuffers, 75, 23, 23, 0, 33, 0, 0, 102, 0x1.5206f3aa63e0cp+6, 0x1p+0},
    {"PRoPHET", 3, kSmallBuffers, 74, 10, 20, 7, 44, 0, 10080, 45, 0x1.206c322a2c6dp+6, 0x1.3333333333334p+0},
    {"PRoPHET", 11, kSmallBuffers, 75, 27, 129, 21, 73, 0, 22848, 102, 0x1.7f0733d33a087p+6, 0x1.4bda12f684bdbp+0},
    {"MEED", 3, kSmallBuffers, 74, 9, 18, 7, 35, 0, 21320, 45, 0x1.0bd5551736cp+6, 0x1.38e38e38e38e4p+0},
    {"MEED", 11, kSmallBuffers, 75, 21, 38, 1, 33, 0, 65416, 102, 0x1.5d5267216c723p+6, 0x1.6186186186186p+0},
    {"FirstContact", 3, kSmallBuffers, 74, 8, 131, 12, 37, 0, 0, 45, 0x1.fca52c56a28b9p+5, 0x1.bffffffffffffp+0},
    {"FirstContact", 11, kSmallBuffers, 75, 25, 279, 12, 31, 0, 0, 102, 0x1.76d605fbdd978p+6, 0x1.8p+1},
    {"Delegation", 3, kSmallBuffers, 74, 10, 23, 7, 43, 0, 896, 45, 0x1.f9f71ca6445f3p+5, 0x1.3333333333334p+0},
    {"Delegation", 11, kSmallBuffers, 75, 22, 94, 13, 63, 0, 2256, 102, 0x1.593ab6fa7c91ap+6, 0x1.22e8ba2e8ba3p+0},
    {"Epidemic", 5, kLongRun, 19, 10, 126, 0, 105, 0, 0, 168, 0x1.4867127650524p+7, 0x1.199999999999ap+1},
    {"EER", 5, kLongRun, 19, 8, 86, 0, 60, 0, 134776, 168, 0x1.1c701890659ecp+7, 0x1.ep+0}
};
// clang-format on

harness::BusScenarioParams params_for(const Golden& g) {
  harness::BusScenarioParams p;
  p.seed = g.seed;
  p.map.rows = 5;
  p.map.cols = 6;
  p.map.districts = 2;
  p.map.routes_per_district = 2;
  p.protocol.name = g.protocol;
  p.protocol.copies = 6;
  if (g.workload == kSmallBuffers) {
    p.node_count = 14;
    p.duration_s = 600.0;
    p.traffic.interval_min = 6.0;
    p.traffic.interval_max = 10.0;
    p.traffic.ttl = 200.0;
    p.full_ttl_window = false;  // keep generating until the end
    p.world.buffer_bytes = 100 * 1024;
  } else {
    p.node_count = 16;
    p.duration_s = 900.0;
    p.traffic.ttl = 300.0;  // full_ttl_window needs ttl < duration
  }
  return p;
}

TEST(WorldGolden, BusRunsMatchPinnedMetrics) {
  for (const Golden& g : kGolden) {
    const harness::ScenarioResult run = harness::run_bus_scenario(params_for(g));
    const Metrics& m = run.metrics;
    const std::string where = std::string(g.protocol) + " seed " +
                              std::to_string(g.seed) +
                              (g.workload == kSmallBuffers ? " small-buffers" : " long-run");
    EXPECT_EQ(m.created(), g.created) << where;
    EXPECT_EQ(m.delivered(), g.delivered) << where;
    EXPECT_EQ(m.relayed(), g.relayed) << where;
    EXPECT_EQ(m.dropped(), g.dropped) << where;
    EXPECT_EQ(m.expired(), g.expired) << where;
    EXPECT_EQ(m.transfers_aborted(), g.aborted) << where;
    EXPECT_EQ(m.control_bytes(), g.control_bytes) << where;
    EXPECT_EQ(run.contact_events, g.contact_events) << where;
    EXPECT_EQ(m.latency_mean(), g.latency_mean) << where;
    EXPECT_EQ(m.hop_count_mean(), g.hop_count_mean) << where;
  }
}

TEST(WorldGolden, SmallBufferTableCoversEveryProtocolAndSeed) {
  std::set<std::pair<std::string, std::uint64_t>> pinned;
  for (const Golden& g : kGolden) {
    if (g.workload == kSmallBuffers) pinned.emplace(g.protocol, g.seed);
  }
  for (const std::string& proto : routing::known_protocols()) {
    for (const std::uint64_t seed : {3u, 11u}) {
      EXPECT_EQ(pinned.count({proto, seed}), 1u) << proto << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dtn::sim
