// Figure 4 — effect of the initial replica count λ ∈ {6, 8, 10, 12} on the
// CR protocol: delivery ratio (a), latency (b), goodput (c) vs node count
// (paper Sec. V-B).
#include "bench_common.hpp"

namespace {

using dtn::bench::BenchScale;
using dtn::bench::FigureCollector;

FigureCollector g_collector;

void register_benchmarks() {
  const BenchScale scale = dtn::bench::bench_scale();
  for (const int lambda : {6, 8, 10, 12}) {
    for (const int nodes : scale.node_counts) {
      const std::string name =
          "Fig4/CR/lambda:" + std::to_string(lambda) + "/nodes:" + std::to_string(nodes);
      const dtn::harness::ScenarioSpec spec = dtn::bench::checked_spec(
          scale, {{"protocol.name", "CR"},
                  {"protocol.copies", std::to_string(lambda)},
                  {"scenario.nodes", std::to_string(nodes)}});
      benchmark::RegisterBenchmark(
          name.c_str(),
          [spec, lambda](benchmark::State& state) {
            dtn::bench::run_point_benchmark(state, spec, &g_collector,
                                            "lambda=" + std::to_string(lambda));
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
  g_collector.print("Figure 4", "CR under lambda in {6,8,10,12} (alpha=0.28)");
  return 0;
}
