// Ablation — per-node buffer capacity. The paper fixes 1 MB buffers and
// omits the sweep; this bench reconstructs it. Replication-heavy protocols
// (MaxProp) should suffer most from small buffers; quota-based protocols
// degrade gracefully.
//
// Buffer pressure needs load: at the paper's ~1 message / 30 s a 1 MB
// buffer (40 packets) never fills at bench scale, so this bench raises the
// message rate ~5x (one message every 5-8 s) — enough for the replication
// protocols to hit eviction while the quota protocols stay comfortable.
#include "bench_common.hpp"

namespace {

using dtn::bench::BenchScale;

struct Row {
  std::string protocol;
  double buffer_mb;
  dtn::harness::PointResult point;
};
std::vector<Row> g_rows;

void register_benchmarks() {
  const BenchScale scale = dtn::bench::bench_scale();
  const int nodes =
      static_cast<int>(dtn::util::env_int("DTN_BENCH_ABLATION_NODES", 120));
  for (const std::string protocol : {"EER", "CR", "MaxProp", "SprayAndWait"}) {
    for (const double mb : {0.5, 1.0, 2.0, 4.0}) {
      const std::string name = "AblationBuffer/" + protocol +
                               "/MB:" + dtn::util::format_double(mb, 1);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [base = dtn::bench::checked_spec(
               scale,
               {{"protocol.name", protocol},
                {"protocol.copies", "10"},
                {"scenario.nodes", std::to_string(nodes)},
                {"world.buffer_bytes",
                 std::to_string(static_cast<std::int64_t>(mb * 1024 * 1024))},
                {"traffic.interval_min", "5"},  // ~5x the paper's load
                {"traffic.interval_max", "8"}}),
           protocol, mb](benchmark::State& state) {
            dtn::harness::ScenarioSpec spec = base;
            dtn::harness::PointResult point;
            std::uint64_t seed = 1000;
            for (auto _ : state) {
              spec.seed = seed++;
              const auto r = dtn::bench::point_runner().run(spec);
              point.delivery_ratio.add(r.metrics.delivery_ratio());
              point.latency.add(r.metrics.latency_mean());
              point.goodput.add(r.metrics.goodput());
            }
            state.counters["delivery_ratio"] = point.delivery_ratio.mean();
            state.counters["latency_s"] = point.latency.mean();
            state.counters["goodput"] = point.goodput.mean();
            g_rows.push_back({protocol, mb, point});
          })
          ->Iterations(scale.seeds)
          ->Unit(benchmark::kSecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\n=== Ablation: buffer capacity sweep (paper fixes 1 MB) ===\n");
  dtn::util::TablePrinter table(
      {"protocol", "buffer_MB", "delivery_ratio", "latency_s", "goodput"});
  for (const auto& row : g_rows) {
    table.new_row()
        .add_cell(row.protocol)
        .add_cell(row.buffer_mb, 1)
        .add_cell(row.point.delivery_ratio.mean(), 4)
        .add_cell(row.point.latency.mean(), 1)
        .add_cell(row.point.goodput.mean(), 4);
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
