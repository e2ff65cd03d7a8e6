// Figure 2 — performance comparison of EER and CR against EBR, MaxProp,
// Spray-and-Wait and Spray-and-Focus: delivery ratio (a), latency (b) and
// goodput (c) as the node count sweeps 40..240 (paper Sec. V-B, λ = 10,
// α = 0.28, TTL 20 min, 1 MB buffers, 25 KB packets).
#include "bench_common.hpp"

namespace {

using dtn::bench::BenchScale;
using dtn::bench::FigureCollector;

FigureCollector g_collector;

const std::vector<std::string>& lineup() {
  static const std::vector<std::string> protocols{
      "EER", "CR", "EBR", "MaxProp", "SprayAndWait", "SprayAndFocus"};
  return protocols;
}

void register_benchmarks() {
  const BenchScale scale = dtn::bench::bench_scale();
  for (const auto& protocol : lineup()) {
    for (const int nodes : scale.node_counts) {
      const std::string name = "Fig2/" + protocol + "/nodes:" + std::to_string(nodes);
      const dtn::harness::ScenarioSpec spec = dtn::bench::checked_spec(
          scale, {{"protocol.name", protocol},
                  {"protocol.copies", "10"},  // λ = 10 (paper Sec. V-B)
                  {"scenario.nodes", std::to_string(nodes)}});
      benchmark::RegisterBenchmark(
          name.c_str(),
          [spec, protocol](benchmark::State& state) {
            dtn::bench::run_point_benchmark(state, spec, &g_collector, protocol);
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
  g_collector.print("Figure 2",
                    "EER/CR vs EBR, MaxProp, Spray-and-Wait, Spray-and-Focus "
                    "(lambda=10, alpha=0.28)");
  return 0;
}
