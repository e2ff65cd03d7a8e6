// The spec-driven workload subsystem, end to end through the harness:
//   - the degenerate (no-matrix) path is bit-identical to an explicit
//     whole-network matrix entry for EVERY registered protocol x two seeds
//     (the compatibility contract that let the generator be replaced);
//   - matrix + profile workloads replay bit-identically across sweep
//     thread counts and across ScenarioRunner reuse;
//   - scenario.full_ttl_window CAPS traffic.stop instead of overwriting a
//     user-set stop (regression: it used to clobber it silently);
//   - validate_spec rejects every malformed traffic section loudly;
//   - trace-driven workloads replay a file and reject malformed input.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "routing/factory.hpp"

namespace dtn::harness {
namespace {

/// One group of 8 waypoint walkers on a small open field: every registered
/// protocol runs it, and it is dense enough to create and deliver traffic
/// in 20 simulated seconds.
ScenarioSpec base_spec() {
  return parse_spec(
      "scenario.name = workload\n"
      "scenario.duration = 20\n"
      "scenario.seed = 7\n"
      "map.kind = open_field\n"
      "map.width = 250\n"
      "map.height = 250\n"
      "group.g0.model = random_waypoint\n"
      "group.g0.count = 8\n"
      "group.g0.speed_min = 2\n"
      "group.g0.speed_max = 8\n"
      "world.radio_range = 60\n"
      "world.step_dt = 0.5\n"
      "protocol.name = Epidemic\n"
      "protocol.copies = 4\n"
      "communities.count = 2\n"
      "traffic.interval_min = 1\n"
      "traffic.interval_max = 3\n"
      "traffic.size_bytes = 2048\n"
      "traffic.ttl = 10\n");
}

void expect_identical(const ScenarioResult& a, const ScenarioResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.metrics.created(), b.metrics.created()) << label;
  EXPECT_EQ(a.metrics.delivered(), b.metrics.delivered()) << label;
  EXPECT_EQ(a.metrics.relayed(), b.metrics.relayed()) << label;
  EXPECT_EQ(a.metrics.dropped(), b.metrics.dropped()) << label;
  EXPECT_EQ(a.metrics.expired(), b.metrics.expired()) << label;
  EXPECT_EQ(a.metrics.control_bytes(), b.metrics.control_bytes()) << label;
  EXPECT_EQ(a.metrics.latency_mean(), b.metrics.latency_mean()) << label;
  EXPECT_EQ(a.contact_events, b.contact_events) << label;
}

std::string validation_error(const ScenarioSpec& spec) {
  try {
    validate_spec(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// The richest expressible workload short of a trace: two flows between
/// group ranges with distinct rates, gated by an on-off profile.
ScenarioSpec matrix_onoff_spec() {
  ScenarioSpec spec = base_spec();
  spec.groups[0].count = 5;
  GroupSpec hub;
  hub.name = "hub";
  hub.model = "stationary";
  hub.count = 3;
  hub.params.stationary.margin = 40.0;
  spec.groups.push_back(std::move(hub));
  spec.traffic.profile = sim::TrafficProfile::kOnOff;
  spec.traffic.on_s = 6.0;
  spec.traffic.off_s = 3.0;
  spec.traffic_matrix = {TrafficEntrySpec{"g0", "hub", 1.0, 2.0, 2048, 2.0},
                         TrafficEntrySpec{"g0", "g0", 2.0, 4.0, 1024, 1.0}};
  return spec;
}

TEST(TrafficWorkload, DegenerateMatrixBitIdenticalForEveryProtocolAndSeed) {
  // The compatibility contract: an explicit traffic.g0.g0 entry with the
  // scalar interval/size is THE SAME workload as no matrix at all — same
  // RNG stream (entry index 0), same draws, same metrics — for every
  // registered protocol and more than one seed.
  const auto protocols = routing::known_protocols();
  ASSERT_GE(protocols.size(), 10u);
  for (const auto& protocol : protocols) {
    for (const std::uint64_t seed : {7u, 99u}) {
      ScenarioSpec implicit = base_spec();
      implicit.protocol.name = protocol;
      implicit.seed = seed;
      ScenarioSpec explicit_m = implicit;
      explicit_m.traffic_matrix = {TrafficEntrySpec{"g0", "g0", 1.0, 3.0, 2048, 1.0}};
      const ScenarioResult a = ScenarioRunner().run(implicit);
      const ScenarioResult b = ScenarioRunner().run(explicit_m);
      ASSERT_GT(a.metrics.created(), 0) << protocol;
      expect_identical(a, b, protocol + " seed " + std::to_string(seed));
    }
  }
}

TEST(TrafficWorkload, MatrixProfileBitIdenticalAcrossThreadCounts) {
  SpecSweepOptions options;
  options.base = matrix_onoff_spec();
  options.axes = {SweepAxis{"protocol.name", routing::known_protocols()}};
  options.seeds = 2;
  options.seed_base = 42;
  options.threads = 1;
  const auto serial = run_spec_sweep(options);
  options.threads = 3;
  const auto parallel = run_spec_sweep(options);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    EXPECT_EQ(serial[p].overrides, parallel[p].overrides);
    for (const auto metric : {Metric::kDeliveryRatio, Metric::kLatency,
                              Metric::kGoodput, Metric::kControlMb, Metric::kRelayed}) {
      EXPECT_EQ(metric_value(serial[p].result, metric),
                metric_value(parallel[p].result, metric))
          << serial[p].label();
    }
  }
}

TEST(TrafficWorkload, MatrixProfileBitIdenticalOnReusedRunner) {
  const ScenarioSpec spec = matrix_onoff_spec();
  const ScenarioResult fresh = ScenarioRunner().run(spec);
  EXPECT_GT(fresh.metrics.created(), 0);

  ScenarioRunner reused;
  ScenarioSpec foreign = base_spec();  // different groups, plain traffic
  foreign.protocol.name = "DirectDelivery";
  reused.run(foreign);
  expect_identical(fresh, reused.run(spec), "[reused after foreign]");
  expect_identical(fresh, reused.run(spec), "[reused twice]");
}

TEST(TrafficWorkload, FullTtlWindowCapsInsteadOfOverwritingUserStop) {
  // Regression: the builder used to assign stop = duration - ttl
  // unconditionally, silently DISCARDING a user-set traffic.stop. It must
  // take the minimum of the two.
  ScenarioSpec spec = base_spec();
  spec.duration_s = 400.0;
  spec.traffic.ttl = 100.0;
  spec.traffic.interval_min = 1.0;
  spec.traffic.interval_max = 1.0;
  spec.traffic.stop = 10.0;  // the user asked for a 10 s burst
  const ScenarioResult r = ScenarioRunner().run(spec);
  // One message per second, stop inclusive: exactly 10. The clobbering bug
  // would generate through duration - ttl = 300 s instead.
  EXPECT_EQ(r.metrics.created(), 10);

  // And the cap still engages when the user stop is beyond the window.
  spec.traffic.stop = 1e18;
  const ScenarioResult capped = ScenarioRunner().run(spec);
  EXPECT_EQ(capped.metrics.created(), 300);
}

TEST(TrafficWorkload, ValidateSpecRejectsEveryMalformedTrafficSection) {
  const auto reject = [](void (*mutate)(ScenarioSpec&), const std::string& needle) {
    ScenarioSpec spec = base_spec();
    spec.groups[0].count = 8;
    mutate(spec);
    const std::string what = validation_error(spec);
    ASSERT_FALSE(what.empty()) << "expected rejection mentioning: " << needle;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  };

  reject([](ScenarioSpec& s) { s.traffic.interval_min = 40.0; },
         "interval_min (40) must be <= ");
  reject([](ScenarioSpec& s) { s.traffic.interval_min = -1.0; },
         "interval_min must be >= 0");
  reject([](ScenarioSpec& s) { s.traffic.interval_max = 0.0; }, "interval_max");
  reject([](ScenarioSpec& s) { s.traffic.ttl = 0.0; }, "traffic.ttl");
  reject([](ScenarioSpec& s) { s.traffic.size_bytes = 0; }, "traffic.size_bytes");
  reject(
      [](ScenarioSpec& s) {
        s.traffic.start = 50.0;
        s.traffic.stop = 10.0;
      },
      "traffic.start (50) must be <= traffic.stop (10)");
  reject([](ScenarioSpec& s) { s.traffic.ttl = 20.0; },
         "scenario.full_ttl_window with traffic.ttl (20) >= scenario.duration (20)");
  reject([](ScenarioSpec& s) { s.traffic_matrix = {TrafficEntrySpec{"g0", "ghost"}}; },
         "unknown group 'ghost'");
  reject(
      [](ScenarioSpec& s) {
        s.traffic_matrix = {TrafficEntrySpec{"g0", "g0"}, TrafficEntrySpec{"g0", "g0"}};
      },
      "duplicate traffic matrix entry traffic.g0.g0");
  reject(
      [](ScenarioSpec& s) {
        s.traffic_matrix = {TrafficEntrySpec{"g0", "g0", 5.0, 2.0}};
      },
      "traffic.g0.g0.interval_min (5) must be <= ");
  reject(
      [](ScenarioSpec& s) {
        s.traffic_matrix = {TrafficEntrySpec{"g0", "g0", 1.0, 3.0, 2048, 0.0}};
      },
      "traffic.g0.g0.weight");
  reject([](ScenarioSpec& s) { s.traffic.profile = sim::TrafficProfile::kOnOff; },
         "traffic.on");
  reject(
      [](ScenarioSpec& s) {
        s.traffic.profile = sim::TrafficProfile::kDiurnal;
        s.traffic.period_s = 0.0;
      },
      "traffic.period");
  reject([](ScenarioSpec& s) { s.traffic.profile = sim::TrafficProfile::kTrace; },
         "traffic.file");
  reject(
      [](ScenarioSpec& s) {
        s.traffic.profile = sim::TrafficProfile::kTrace;
        s.traffic_file = "whatever.trace";
        s.traffic_matrix = {TrafficEntrySpec{"g0", "g0"}};
      },
      "cannot be combined");

  // And the parser side of the same surface: bad profile names and
  // misspelled matrix parameter keys are diagnosed, never half-applied.
  ScenarioSpec parsed;
  std::vector<SpecDiagnostic> diagnostics;
  EXPECT_FALSE(try_parse_spec(to_config(base_spec()) + "traffic.profile = sometimes\n",
                              parsed, diagnostics));
  EXPECT_FALSE(try_parse_spec(to_config(base_spec()) + "traffic.g0.g0.weigth = 2\n",
                              parsed, diagnostics));
}

TEST(TrafficWorkload, TraceFileWorkloadReplaysAndValidates) {
  const std::string path = ::testing::TempDir() + "/workload.trace";
  {
    std::ofstream out(path);
    out << "# time src dst [size_bytes [ttl]]\n"
        << "1.0 0 1\n"
        << "2.5 1 2 4096\n"
        << "4.0 2 3 512 5\n";
  }
  ScenarioSpec spec = base_spec();
  spec.traffic.profile = sim::TrafficProfile::kTrace;
  spec.traffic_file = path;
  const ScenarioResult a = ScenarioRunner().run(spec);
  EXPECT_EQ(a.metrics.created(), 3);
  expect_identical(a, ScenarioRunner().run(spec), "[trace replay]");

  spec.traffic_file = path + ".does-not-exist";
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);

  const std::string bad = ::testing::TempDir() + "/workload_bad.trace";
  {
    std::ofstream out(bad);
    out << "1.0 0 99\n";  // node 99 out of range
  }
  spec.traffic_file = bad;
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  {
    std::ofstream out(bad);
    out << "5.0 0 1\n3.0 1 2\n";  // decreasing timestamps
  }
  EXPECT_THROW(run_scenario(spec), std::invalid_argument);
  // Misaligned or garbage fields fail with path:line context: a fractional
  // size must not load as an integer size plus a TTL of its fraction.
  for (const std::string line : {"10 0 1 25.5", "10 0 1 abc", "10 0 1 512 5 7",
                                 "10 0", "10 0.5 1", "x 0 1"}) {
    {
      std::ofstream out(bad);
      out << "# header\n1.0 0 1\n" << line << "\n";
    }
    try {
      run_scenario(spec);
      ADD_FAILURE() << "accepted '" << line << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad + ":3:"), std::string::npos)
          << line << " -> " << e.what();
    }
  }
}

}  // namespace
}  // namespace dtn::harness
