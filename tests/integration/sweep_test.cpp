// Harness sweep runner: grid execution, aggregation, and table rendering.
#include "harness/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace dtn::harness {
namespace {

SweepOptions tiny_sweep() {
  SweepOptions opt;
  opt.protocols = {"DirectDelivery", "Epidemic"};
  opt.node_counts = {12, 20};
  opt.seeds = 2;
  opt.seed_base = 77;
  opt.base.duration_s = 1200.0;
  opt.base.traffic.ttl = 600.0;
  opt.base.map.rows = 6;
  opt.base.map.cols = 8;
  opt.base.map.districts = 2;
  opt.base.map.routes_per_district = 2;
  return opt;
}

TEST(Sweep, ProducesOnePointPerProtocolNodeCount) {
  const auto results = run_sweep(tiny_sweep());
  ASSERT_EQ(results.size(), 4u);
  for (const auto& p : results) {
    EXPECT_EQ(p.delivery_ratio.count(), 2u) << "one sample per seed";
    EXPECT_EQ(p.goodput.count(), 2u);
  }
}

TEST(Sweep, ProgressCallbackFiresPerRun) {
  SweepOptions opt = tiny_sweep();
  std::atomic<int> calls{0};
  opt.progress = [&calls](const std::string&) { calls.fetch_add(1); };
  run_sweep(opt);
  EXPECT_EQ(calls.load(), 2 * 2 * 2);  // protocols * node counts * seeds
}

TEST(Sweep, OrderFollowsInputs) {
  const auto results = run_sweep(tiny_sweep());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].protocol, "DirectDelivery");
  EXPECT_EQ(results[0].node_count, 12);
  EXPECT_EQ(results[1].node_count, 20);
  EXPECT_EQ(results[2].protocol, "Epidemic");
}

TEST(Sweep, EpidemicDominatesDirectDeliveryOnDeliveries) {
  const auto results = run_sweep(tiny_sweep());
  // Aggregate over node counts: epidemic's flooding can't deliver less.
  double direct = 0.0;
  double epidemic = 0.0;
  for (const auto& p : results) {
    (p.protocol == "Epidemic" ? epidemic : direct) += p.delivery_ratio.mean();
  }
  EXPECT_GE(epidemic + 1e-9, direct);
}

TEST(Sweep, MetricTableLayout) {
  const auto results = run_sweep(tiny_sweep());
  const auto table = metric_table(results, Metric::kDeliveryRatio);
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("nodes"), std::string::npos);
  EXPECT_NE(rendered.find("DirectDelivery"), std::string::npos);
  EXPECT_NE(rendered.find("Epidemic"), std::string::npos);
  EXPECT_NE(rendered.find("12"), std::string::npos);
  EXPECT_NE(rendered.find("20"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Sweep, MetricAccessorsCoverAllMetrics) {
  const auto results = run_sweep(tiny_sweep());
  for (const auto metric : {Metric::kDeliveryRatio, Metric::kLatency, Metric::kGoodput,
                            Metric::kControlMb, Metric::kRelayed}) {
    EXPECT_FALSE(metric_name(metric).empty());
    EXPECT_GE(metric_value(results[0], metric), 0.0);
  }
}

TEST(Sweep, ParallelAndSerialAgree) {
  SweepOptions opt = tiny_sweep();
  opt.threads = 1;
  const auto serial = run_sweep(opt);
  opt.threads = 4;
  const auto parallel = run_sweep(opt);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].delivery_ratio.mean(),
                     parallel[i].delivery_ratio.mean());
    EXPECT_DOUBLE_EQ(serial[i].goodput.mean(), parallel[i].goodput.mean());
  }
}

/// Requires every aggregate of every point to be EXACTLY equal (same bits,
/// same sample counts) between two sweeps.
void expect_identical_results(const std::vector<PointResult>& a,
                              const std::vector<PointResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].protocol + "/n=" + std::to_string(a[i].node_count));
    EXPECT_EQ(a[i].protocol, b[i].protocol);
    EXPECT_EQ(a[i].node_count, b[i].node_count);
    EXPECT_EQ(a[i].delivery_ratio.count(), b[i].delivery_ratio.count());
    for (const auto metric : {Metric::kDeliveryRatio, Metric::kLatency,
                              Metric::kGoodput, Metric::kControlMb, Metric::kRelayed}) {
      EXPECT_EQ(metric_value(a[i], metric), metric_value(b[i], metric))
          << metric_name(metric);
    }
    EXPECT_EQ(a[i].contacts.mean(), b[i].contacts.mean());
    EXPECT_EQ(a[i].delivery_ratio.stddev(), b[i].delivery_ratio.stddev());
  }
}

TEST(Sweep, AggregatesBitIdenticalAcrossThreadCounts) {
  // The reused engine folds per-task samples in task order after the loop,
  // so aggregates cannot depend on worker count or completion order.
  SweepOptions opt = tiny_sweep();
  opt.seeds = 3;
  opt.threads = 1;
  const auto one = run_sweep(opt);
  opt.threads = 4;
  const auto four = run_sweep(opt);
  opt.threads = 0;  // hardware concurrency
  const auto hw = run_sweep(opt);
  expect_identical_results(one, four);
  expect_identical_results(one, hw);
}

TEST(Sweep, ScenarioRunnerReuseMatchesFreshWorlds) {
  // One runner executing a protocol/node-count/seed mix back to back must
  // reproduce fresh-world runs bit for bit (World::reset contract at the
  // harness level; the 12-protocol sweep lives in world_reuse_test).
  SweepOptions opt = tiny_sweep();
  ScenarioRunner runner;
  for (const auto& protocol : opt.protocols) {
    for (const int nodes : opt.node_counts) {
      for (int s = 0; s < opt.seeds; ++s) {
        BusScenarioParams params = opt.base;
        params.protocol.name = protocol;
        params.node_count = nodes;
        params.seed = opt.seed_base + static_cast<std::uint64_t>(s);
        const ScenarioResult fresh = run_bus_scenario(params);
        const ScenarioResult reused = runner.run(params);
        SCOPED_TRACE(protocol + "/n=" + std::to_string(nodes) +
                     "/seed=" + std::to_string(params.seed));
        EXPECT_EQ(fresh.metrics.created(), reused.metrics.created());
        EXPECT_EQ(fresh.metrics.delivered(), reused.metrics.delivered());
        EXPECT_EQ(fresh.metrics.relayed(), reused.metrics.relayed());
        EXPECT_EQ(fresh.metrics.dropped(), reused.metrics.dropped());
        EXPECT_EQ(fresh.metrics.control_bytes(), reused.metrics.control_bytes());
        EXPECT_EQ(fresh.contact_events, reused.contact_events);
        EXPECT_EQ(fresh.metrics.latency_mean(), reused.metrics.latency_mean());
      }
    }
  }
}

}  // namespace
}  // namespace dtn::harness
