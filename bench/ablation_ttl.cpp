// Ablation — message TTL. The paper fixes TTL = 20 min and omits the sweep;
// this bench reconstructs it. The TTL interacts with EER's core idea (the
// expected EV conditioned on α·TTL), so the gap between EER and the
// TTL-blind EBR should widen at short TTLs.
#include "bench_common.hpp"

namespace {

using dtn::bench::BenchScale;

struct Row {
  std::string protocol;
  double ttl;
  dtn::harness::PointResult point;
};
std::vector<Row> g_rows;

void register_benchmarks() {
  const BenchScale scale = dtn::bench::bench_scale();
  const int nodes =
      static_cast<int>(dtn::util::env_int("DTN_BENCH_ABLATION_NODES", 120));
  for (const std::string protocol : {"EER", "CR", "EBR", "SprayAndWait"}) {
    for (const double ttl : {600.0, 1200.0, 2400.0}) {
      const std::string name = "AblationTtl/" + protocol +
                               "/ttl:" + std::to_string(static_cast<int>(ttl));
      benchmark::RegisterBenchmark(
          name.c_str(),
          [base = dtn::bench::checked_spec(
               scale, {{"protocol.name", protocol},
                       {"protocol.copies", "10"},
                       {"scenario.nodes", std::to_string(nodes)},
                       {"traffic.ttl", dtn::util::format_value(ttl)}}),
           protocol, ttl](benchmark::State& state) {
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
            g_rows.push_back({protocol, ttl, point});
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
  std::printf("\n=== Ablation: TTL sweep (paper fixes TTL = 1200 s) ===\n");
  dtn::util::TablePrinter table(
      {"protocol", "ttl_s", "delivery_ratio", "latency_s", "goodput"});
  for (const auto& row : g_rows) {
    table.new_row()
        .add_cell(row.protocol)
        .add_cell(row.ttl, 0)
        .add_cell(row.point.delivery_ratio.mean(), 4)
        .add_cell(row.point.latency.mean(), 1)
        .add_cell(row.point.goodput.mean(), 4);
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
