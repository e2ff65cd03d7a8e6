// Ablation — CR with ground-truth vs detected communities, plus EER as the
// community-free control. The paper predefines communities (Sec. IV fn. 2)
// and lists distributed construction as future work; this bench closes the
// loop: communities detected from a routing-free contact warm-up
// (core::detect_communities over the thresholded contact-count graph)
// should recover most of ground-truth CR's performance.
#include <memory>

#include "bench_common.hpp"

namespace {

using dtn::bench::BenchScale;

struct Row {
  std::string variant;
  dtn::harness::PointResult point;
  double communities_found = 0.0;
};
std::vector<Row> g_rows;

void run_variant(benchmark::State& state, const std::string& variant,
                 dtn::harness::ScenarioSpec spec) {
  dtn::harness::PointResult point;
  double communities_found = 0.0;
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    spec.seed = seed++;
    if (variant == "CR-detected") {
      dtn::core::DetectionParams detection;
      detection.familiar_threshold = 4;
      spec.communities_override =
          std::make_shared<const dtn::core::CommunityTable>(
              dtn::harness::detect_spec_communities(spec, detection,
                                                    /*warmup_s=*/1500.0));
      communities_found += spec.communities_override->community_count();
    }
    const auto r = dtn::bench::point_runner().run(spec);
    point.delivery_ratio.add(r.metrics.delivery_ratio());
    point.latency.add(r.metrics.latency_mean());
    point.goodput.add(r.metrics.goodput());
    point.control_mb.add(static_cast<double>(r.metrics.control_bytes()) / 1e6);
  }
  state.counters["delivery_ratio"] = point.delivery_ratio.mean();
  state.counters["goodput"] = point.goodput.mean();
  g_rows.push_back({variant, point,
                    communities_found / static_cast<double>(state.iterations())});
}

void register_benchmarks() {
  const BenchScale scale = dtn::bench::bench_scale();
  const int nodes =
      static_cast<int>(dtn::util::env_int("DTN_BENCH_ABLATION_NODES", 120));
  for (const std::string variant : {"CR-groundtruth", "CR-detected", "EER"}) {
    benchmark::RegisterBenchmark(
        ("AblationCommunities/" + variant).c_str(),
        [variant, spec = dtn::bench::checked_spec(
                      scale, {{"scenario.nodes", std::to_string(nodes)},
                              {"protocol.copies", "10"},
                              {"protocol.name", variant == "EER" ? "EER" : "CR"}})](
            benchmark::State& state) { run_variant(state, variant, spec); })
        ->Iterations(scale.seeds)
        ->Unit(benchmark::kSecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\n=== Ablation: community construction (paper future work #2) ===\n");
  dtn::util::TablePrinter table({"variant", "delivery_ratio", "latency_s", "goodput",
                                 "control_MB", "detected_communities"});
  for (const auto& row : g_rows) {
    table.new_row()
        .add_cell(row.variant)
        .add_cell(row.point.delivery_ratio.mean(), 4)
        .add_cell(row.point.latency.mean(), 1)
        .add_cell(row.point.goodput.mean(), 4)
        .add_cell(row.point.control_mb.mean(), 2)
        .add_cell(row.communities_found, 1);
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
