// Shared scaffolding for the figure benchmarks.
//
// Every bench binary reproduces one figure of the paper: it runs the
// corresponding (protocol × parameter × node-count) grid through the bus
// scenario, registers one google-benchmark per grid point (iterations =
// seeds, counters = the paper's metrics averaged across seeds), and prints
// the figure's series as aligned tables after the run.
//
// Since the ScenarioSpec redesign a grid point is a base spec plus
// `key = value` overrides (the same vocabulary as scenario files, dtnsim
// --set, and sweep axes) — the per-figure binaries contain NO world-
// building code, only their axis values.
//
// Scale knobs (environment):
//   DTN_BENCH_SEEDS     seeds per point            (default 2)
//   DTN_BENCH_DURATION  simulated seconds per run  (default 3000)
//   DTN_BENCH_NODES_MAX largest node count         (default 240)
//   DTN_BENCH_FULL=1    paper scale: 10 seeds, 10000 s
// The paper uses 10 seeds × 10000 s; the defaults keep a full bench run
// laptop-sized while preserving the figures' shape.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/spec.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace dtn::bench {

struct BenchScale {
  int seeds = 2;
  double duration_s = 3000.0;
  std::vector<int> node_counts{40, 80, 120, 160, 200, 240};
};

inline BenchScale bench_scale() {
  BenchScale s;
  if (util::env_int("DTN_BENCH_FULL", 0) == 1) {
    s.seeds = 10;
    s.duration_s = 10000.0;
  }
  s.seeds = static_cast<int>(util::env_int("DTN_BENCH_SEEDS", s.seeds));
  s.duration_s = static_cast<double>(
      util::env_int("DTN_BENCH_DURATION", static_cast<std::int64_t>(s.duration_s)));
  const auto max_nodes = util::env_int("DTN_BENCH_NODES_MAX", 240);
  std::vector<int> counts;
  for (const int n : s.node_counts) {
    if (n <= max_nodes) counts.push_back(n);
  }
  if (!counts.empty()) s.node_counts = counts;
  return s;
}

/// Paper-default bus scenario (Sec. V-A) at the bench scale: a downtown
/// map and one group of 120 buses; WorldConfig / TrafficParams defaults
/// are the paper's.
inline harness::ScenarioSpec paper_spec(const BenchScale& scale) {
  harness::ScenarioSpec spec;
  spec.name = "bus";
  spec.duration_s = scale.duration_s;
  harness::GroupSpec buses;
  buses.name = "buses";
  buses.model = "bus";
  buses.count = 120;
  spec.groups.push_back(std::move(buses));
  return spec;
}

/// The paper spec at `scale` with `overrides` (key, value) applied and
/// validated. Figures call this while registering their benchmarks, so an
/// invalid spec (say, a DTN_BENCH_DURATION shorter than the TTL) prints its
/// diagnostic and exits 1 before any benchmark runs, instead of throwing
/// out of a benchmark body and terminating the binary.
inline harness::ScenarioSpec checked_spec(
    const BenchScale& scale, const std::vector<std::pair<std::string, std::string>>& overrides) {
  try {
    harness::ScenarioSpec spec = paper_spec(scale);
    for (const auto& [key, value] : overrides) harness::apply_override(spec, key, value);
    harness::validate_spec(spec);
    return spec;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid benchmark spec: %s\n", e.what());
    std::exit(1);
  }
}

/// Accumulates per-point results so the figure tables can be printed after
/// all benchmarks ran.
class FigureCollector {
 public:
  /// Stores `point` under column `series` (its protocol field is relabeled).
  void add(harness::PointResult point, const std::string& series) {
    point.protocol = series;
    points_.push_back(std::move(point));
  }

  /// Prints rows = node counts, columns = series, one table per metric.
  void print(const std::string& figure, const std::string& caption) const {
    std::printf("\n=== %s: %s ===\n", figure.c_str(), caption.c_str());
    for (const auto metric : {harness::Metric::kDeliveryRatio, harness::Metric::kLatency,
                              harness::Metric::kGoodput, harness::Metric::kControlMb}) {
      const util::TablePrinter table = harness::metric_table(
          points_, metric, metric == harness::Metric::kLatency ? 1 : 4);
      std::printf("\n--- %s ---\n%s", harness::metric_name(metric).c_str(),
                  table.to_string().c_str());
    }
    std::fflush(stdout);
  }

 private:
  std::vector<harness::PointResult> points_;
};

/// The binary-wide reusable scenario executor: every grid point of every
/// registered benchmark runs through ONE warm World (capacity retained
/// across protocols, node counts, and seeds — results are bit-identical to
/// fresh worlds per the World::reset contract).
inline harness::ScenarioRunner& point_runner() {
  static harness::ScenarioRunner runner;
  return runner;
}

/// Runs one simulation per benchmark iteration (= per seed) of `spec`
/// (overrides already applied) and records the averaged metrics both as
/// benchmark counters and into `collector`.
inline void run_point_benchmark(benchmark::State& state, harness::ScenarioSpec spec,
                                FigureCollector* collector, const std::string& series) {
  harness::PointResult point;
  point.protocol = spec.protocol.name;
  point.node_count = spec.node_count();
  point.copies = spec.protocol.copies;
  point.alpha = spec.protocol.alpha;
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    spec.seed = seed++;
    const harness::ScenarioResult r = point_runner().run(spec);
    point.delivery_ratio.add(r.metrics.delivery_ratio());
    point.latency.add(r.metrics.latency_mean());
    point.goodput.add(r.metrics.goodput());
    point.control_mb.add(static_cast<double>(r.metrics.control_bytes()) / 1e6);
    point.relayed.add(static_cast<double>(r.metrics.relayed()));
    point.contacts.add(static_cast<double>(r.contact_events));
  }
  state.counters["delivery_ratio"] = point.delivery_ratio.mean();
  state.counters["latency_s"] = point.latency.mean();
  state.counters["goodput"] = point.goodput.mean();
  state.counters["control_MB"] = point.control_mb.mean();
  if (collector != nullptr) collector->add(point, series);
}

}  // namespace dtn::bench
