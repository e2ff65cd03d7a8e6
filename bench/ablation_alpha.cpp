// Ablation — the network parameter α (the fraction of residual TTL the EEV
// / ENEC estimators look ahead). The paper fixes α = 0.28 "indicated to be
// a reasonable value from the preliminary simulations" and omits the sweep
// for space; this bench reconstructs it for EER and CR at a fixed node
// count (default 120, env DTN_BENCH_ABLATION_NODES).
#include "bench_common.hpp"

namespace {

using dtn::bench::BenchScale;

struct Row {
  std::string protocol;
  double alpha;
  dtn::harness::PointResult point;
};
std::vector<Row> g_rows;

void register_benchmarks() {
  const BenchScale scale = dtn::bench::bench_scale();
  const int nodes =
      static_cast<int>(dtn::util::env_int("DTN_BENCH_ABLATION_NODES", 120));
  for (const std::string protocol : {"EER", "CR"}) {
    for (const double alpha : {0.1, 0.28, 0.5, 1.0}) {
      const std::string name =
          "AblationAlpha/" + protocol + "/alpha:" + dtn::util::format_double(alpha, 2);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [base = dtn::bench::checked_spec(
               scale, {{"protocol.name", protocol},
                       {"protocol.alpha", dtn::util::format_value(alpha)},
                       {"protocol.copies", "10"},
                       {"scenario.nodes", std::to_string(nodes)}}),
           protocol, alpha, nodes](benchmark::State& state) {
            dtn::harness::ScenarioSpec spec = base;
            dtn::harness::PointResult point;
            point.protocol = protocol;
            point.node_count = nodes;
            point.alpha = alpha;
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
            g_rows.push_back({protocol, alpha, point});
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
  std::printf("\n=== Ablation: alpha sweep (EER & CR, paper fixes alpha=0.28) ===\n");
  dtn::util::TablePrinter table(
      {"protocol", "alpha", "delivery_ratio", "latency_s", "goodput"});
  for (const auto& row : g_rows) {
    table.new_row()
        .add_cell(row.protocol)
        .add_cell(row.alpha, 2)
        .add_cell(row.point.delivery_ratio.mean(), 4)
        .add_cell(row.point.latency.mean(), 1)
        .add_cell(row.point.goodput.mean(), 4);
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
