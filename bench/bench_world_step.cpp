// World-step throughput benchmark: the perf trajectory for the simulation
// kernel. Runs a random-waypoint + epidemic workload and reports steps/sec
// and contact-events/sec at n in {100, 500, 2000}, plus the exact number
// of contact events in the timed window — a host-independent work count
// that pins the workload itself. Results land in BENCH_world_step.json
// (committed at the repo root) so successive PRs have a comparable perf
// history.
//
// A second, buffer-pressure workload stresses the slab message store:
// small packets under dense traffic saturate every buffer and force
// constant insert / evict / scan churn.
//
// The binary also measures the allocation contract: a global operator new
// counter counts heap allocations per step after warm-up, (a) on a
// traffic-free run where step() == move + detect_contacts, and (b) on the
// buffer-pressure workload where the store churns every step. Both should
// be ~0 (residuals: rare spatial-grid cell discovery and
// per-first-delivery metrics bookkeeping).
//
// A third, sparse-field workload times the kinetic event kernel
// (WorldConfig::event_kernel) against the fixed-dt loop it replaces: a
// large open field (50 000 m^2/node, 10 m range) where contacts are rare
// events and almost every fixed step is dead time. Both sides execute
// run() end to end from the same seed and must produce bit-identical
// metrics — the kernel's contract (also enforced by sim_event_kernel_test)
// — cross-checked FATALly before any number is reported.
//
// Flags: --steps N (timed steps, default 1500), --warmup N (default 300),
//        --out PATH (default BENCH_world_step.json), --smoke (tiny sizes
//        for CI: bench_smoke runs `bench_world_step --steps 200 --smoke`).
#include <atomic>
#include <chrono>
#include <cmath>
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "mobility/random_waypoint.hpp"
#include "routing/epidemic.hpp"
#include "sim/world.hpp"
#include "util/flags.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
bool g_count_allocs = false;

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dtn::bench {

struct RunResult {
  double steps_per_sec = 0.0;
  double contact_events_per_sec = 0.0;
  std::int64_t contact_events = 0;
};

/// Extra knobs for the buffer-pressure workload; defaults reproduce the
/// original contact-layer workload (paper traffic, 1 MB buffers).
struct WorkloadTuning {
  std::int64_t buffer_bytes = 1 << 20;
  double traffic_interval_min = 25.0;
  double traffic_interval_max = 35.0;
  std::int64_t traffic_size_bytes = 25 * 1024;
};

/// Random-waypoint world at constant density (`area_per_node` m^2 per node,
/// 10 m radio range: a DTN with steady link churn). `with_traffic` adds the
/// paper's 25 KB message stream over epidemic routers so the contact layer
/// is exercised by real neighbor queries and transfers.
std::unique_ptr<sim::World> build_world(int nodes, bool with_traffic,
                                        double area_per_node,
                                        const WorkloadTuning& tuning = {}) {
  sim::WorldConfig config;
  config.seed = 42;
  config.buffer_bytes = tuning.buffer_bytes;
  auto world = std::make_unique<sim::World>(config);
  const double side = std::sqrt(area_per_node * nodes);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < nodes; ++i) {
    world->add_node(std::make_unique<mobility::RandomWaypoint>(move),
                    std::make_unique<routing::EpidemicRouter>());
  }
  if (with_traffic) {
    sim::TrafficParams traffic;  // paper defaults: 25 KB, TTL 1200 s
    traffic.interval_min = tuning.traffic_interval_min;
    traffic.interval_max = tuning.traffic_interval_max;
    traffic.size_bytes = tuning.traffic_size_bytes;
    world->set_traffic(traffic);
  }
  return world;
}

/// One timed segment of `steps` steps; returns wall seconds.
double time_segment(sim::World& world, int steps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < steps; ++i) world.step();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Steps `world` through `warmup` untimed steps, then `trials` timed
/// segments of `steps` steps; best-of-`trials` filters scheduler noise on a
/// shared host. contact_events counts the whole timed window (every trial),
/// so it depends only on the workload and the flags.
RunResult timed_run(sim::World& world, int warmup, int steps, int trials) {
  for (int i = 0; i < warmup; ++i) world.step();
  const std::int64_t before = world.contact_events();
  double best = 1e300;
  std::int64_t best_events = 0;
  for (int t = 0; t < trials; ++t) {
    const std::int64_t seg = world.contact_events();
    const double secs = time_segment(world, steps);
    if (secs < best) {
      best = secs;
      best_events = world.contact_events() - seg;
    }
  }
  // Rates come from the best segment alone (time AND events of that same
  // segment) so steps_per_sec and contact_events_per_sec stay consistent.
  RunResult run;
  run.contact_events = world.contact_events() - before;
  run.steps_per_sec = steps / best;
  run.contact_events_per_sec = static_cast<double>(best_events) / best;
  return run;
}

/// Sparse open-field world for the event-kernel A/B: random waypoint at
/// `area_per_node` m^2/node (orders of magnitude sparser than the contact
/// workload), paper traffic, epidemic routers. SoA registration keeps the
/// lanes closed-form so the kernel can engage.
std::unique_ptr<sim::World> build_sparse_world(int nodes, bool event_kernel,
                                               double area_per_node) {
  sim::WorldConfig config;
  config.seed = 42;
  config.event_kernel = event_kernel;
  auto world = std::make_unique<sim::World>(config);
  const double side = std::sqrt(area_per_node * nodes);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < nodes; ++i) {
    world->add_node(move, std::make_unique<routing::EpidemicRouter>());
  }
  sim::TrafficParams traffic;  // paper defaults: 25 KB, TTL 1200 s
  world->set_traffic(traffic);
  return world;
}

/// Times run(duration) end to end for both worlds (the kernel dispatches
/// inside run(), so calendar construction is part of the measured cost).
/// Trials are INTERLEAVED so back-to-back A/B segments see the same host
/// conditions, with reseed(seed) restoring bit-identical state between
/// trials; returns {fixed_best, event_best} wall seconds.
std::pair<double, double> timed_kernel_ab(sim::World& fixed_world,
                                          sim::World& event_world,
                                          double duration, int trials) {
  double fixed_best = 1e300;
  double event_best = 1e300;
  for (int t = 0; t < trials; ++t) {
    if (t > 0) {
      fixed_world.reseed(42);
      event_world.reseed(42);
    }
    auto t0 = std::chrono::steady_clock::now();
    fixed_world.run(duration);
    auto t1 = std::chrono::steady_clock::now();
    fixed_best = std::min(fixed_best, std::chrono::duration<double>(t1 - t0).count());
    t0 = std::chrono::steady_clock::now();
    event_world.run(duration);
    t1 = std::chrono::steady_clock::now();
    event_best = std::min(event_best, std::chrono::duration<double>(t1 - t0).count());
  }
  return {fixed_best, event_best};
}

/// Heap allocations per step, after warm-up. Traffic-free isolates the
/// contact layer (step() == move + detect_contacts); with traffic and
/// pressure tuning it measures the full transfer + store churn path.
double allocs_per_step(int nodes, bool with_traffic, int warmup, int steps,
                       double area_per_node, const WorkloadTuning& tuning = {}) {
  auto world = build_world(nodes, with_traffic, area_per_node, tuning);
  for (int i = 0; i < warmup; ++i) world->step();
  g_allocs.store(0);
  g_count_allocs = true;
  for (int i = 0; i < steps; ++i) world->step();
  g_count_allocs = false;
  return static_cast<double>(g_allocs.load()) / steps;
}

}  // namespace dtn::bench

int main(int argc, char** argv) {
  using namespace dtn;
  const util::Flags flags = util::Flags::parse(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const int steps = static_cast<int>(flags.get_int("steps", 1500));
  const int warmup = static_cast<int>(flags.get_int("warmup", smoke ? 50 : 300));
  const int trials = static_cast<int>(flags.get_int("trials", smoke ? 1 : 3));
  // 120 m^2/node with 10 m radio range gives a mean degree of ~2.6 — an
  // urban-DTN density where the contact layer carries real load.
  const double density = flags.get_double("density", 120.0);
  if (steps < 1 || warmup < 0 || trials < 1 || !(density > 0.0)) {
    std::fprintf(stderr,
                 "bench_world_step: --steps >= 1, --warmup >= 0, --trials >= 1 "
                 "and --density > 0 required\n");
    return 2;
  }
  const std::string out_path =
      flags.get_string("out", "BENCH_world_step.json");
  const std::vector<int> node_counts = smoke ? std::vector<int>{100, 500}
                                             : std::vector<int>{100, 500, 2000};

  std::string json = "{\n  \"bench\": \"world_step\",\n";
  {
    char wl[160];
    std::snprintf(wl, sizeof(wl),
                  "  \"workload\": \"random-waypoint @ %.0f m^2/node, 10 m range, "
                  "epidemic routers, paper traffic\",\n",
                  density);
    json += wl;
  }
  json += "  \"steps\": " + std::to_string(steps) +
          ", \"warmup\": " + std::to_string(warmup) +
          ", \"trials\": " + std::to_string(trials) + ",\n  \"points\": [\n";

  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const int n = node_counts[i];
    std::printf("n=%d ...\n", n);
    std::fflush(stdout);
    auto world = bench::build_world(n, /*with_traffic=*/true, density);
    const bench::RunResult run = bench::timed_run(*world, warmup, steps, trials);
    std::printf("n=%-5d %9.1f steps/s | %.0f contact-events/s | %lld contact events\n",
                n, run.steps_per_sec, run.contact_events_per_sec,
                static_cast<long long>(run.contact_events));
    std::fflush(stdout);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"nodes\": %d, \"incremental_steps_per_sec\": %.1f, "
                  "\"contact_events_per_sec\": %.1f, \"contact_events\": %lld}%s\n",
                  n, run.steps_per_sec, run.contact_events_per_sec,
                  static_cast<long long>(run.contact_events),
                  i + 1 < node_counts.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";

  // ---- buffer-pressure workload: stress the message store ----
  // Small packets (2 KB, telemetry-style) under dense traffic saturate
  // every node's 1 MB buffer at ~512 stored copies, so each contact-up
  // walks a big store (the epidemic-family hot loop) and every admitted
  // copy evicts another (forced drops).
  bench::WorkloadTuning pressure;
  pressure.buffer_bytes = 1 << 20;  // 512 x 2 KB
  pressure.traffic_interval_min = 0.5;
  pressure.traffic_interval_max = 1.0;
  pressure.traffic_size_bytes = 2 * 1024;
  const int pressure_warmup = std::max(warmup, smoke ? 1500 : 5000);
  const std::vector<int> pressure_nodes = smoke ? std::vector<int>{100}
                                                : std::vector<int>{100, 500};
  json += "  \"buffer_pressure\": {\n"
          "    \"workload\": \"1 MB buffers saturated at ~512 x 2 KB packets "
          "(message every 0.5-1 s), forced drops\",\n    \"points\": [\n";
  for (std::size_t i = 0; i < pressure_nodes.size(); ++i) {
    const int n = pressure_nodes[i];
    std::printf("buffer pressure n=%d ...\n", n);
    std::fflush(stdout);
    auto world = bench::build_world(n, /*with_traffic=*/true, density, pressure);
    const bench::RunResult run =
        bench::timed_run(*world, pressure_warmup, steps, trials);
    std::printf("n=%-5d slab %9.1f steps/s | %lld drops\n", n, run.steps_per_sec,
                static_cast<long long>(world->metrics().dropped()));
    std::fflush(stdout);
    char buf[384];
    std::snprintf(buf, sizeof(buf), "      {\"nodes\": %d, \"slab_steps_per_sec\": %.1f}%s\n",
                  n, run.steps_per_sec, i + 1 < pressure_nodes.size() ? "," : "");
    json += buf;
  }

  // Store churn allocation contract under pressure: the slab must stay
  // ~0 allocs/step.
  const int pressure_alloc_nodes = smoke ? 60 : 100;
  const double slab_pressure_allocs = bench::allocs_per_step(
      pressure_alloc_nodes, /*with_traffic=*/true, pressure_warmup, steps, density,
      pressure);
  std::printf("buffer-pressure allocs/step (n=%d): slab %.4f\n", pressure_alloc_nodes,
              slab_pressure_allocs);
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    ],\n    \"allocs_per_step\": {\"nodes\": %d, "
                  "\"slab\": %.4f}\n  },\n",
                  pressure_alloc_nodes, slab_pressure_allocs);
    json += buf;
  }

  // ---- sparse-field workload: the kinetic event kernel ----
  // 50 000 m^2/node with a 10 m radio range (mean degree ~0.006): a wide
  // open field where contacts are rare events. The fixed-dt loop pays for
  // every 0.1 s step regardless; the event kernel advances calendar-entry
  // to calendar-entry. Same seed, same grid semantics: the metric bits
  // must be IDENTICAL before the timing means anything.
  const double sparse_density = flags.get_double("sparse-density", 50000.0);
  const std::vector<int> kernel_nodes = smoke ? std::vector<int>{300}
                                              : std::vector<int>{2000, 4000};
  const double kernel_duration = smoke ? 60.0 : 600.0;
  json += "  \"event_kernel\": {\n"
          "    \"workload\": \"random-waypoint @ " +
          std::to_string(static_cast<long long>(sparse_density)) +
          " m^2/node, 10 m range, open field, epidemic routers, paper "
          "traffic; run() timed end to end\",\n    \"points\": [\n";
  for (std::size_t i = 0; i < kernel_nodes.size(); ++i) {
    const int n = kernel_nodes[i];
    std::printf("event kernel n=%d ...\n", n);
    std::fflush(stdout);
    auto fixed_world = bench::build_sparse_world(n, /*event_kernel=*/false,
                                                 sparse_density);
    auto event_world = bench::build_sparse_world(n, /*event_kernel=*/true,
                                                 sparse_density);
    const auto [fixed_secs, event_secs] =
        bench::timed_kernel_ab(*fixed_world, *event_world, kernel_duration, trials);
    if (!event_world->event_kernel_used()) {
      std::fprintf(stderr,
                   "FATAL: event kernel declined the sparse workload at n=%d "
                   "— the A/B is meaningless\n", n);
      return 1;
    }
    const bool same_sim =
        fixed_world->contact_events() == event_world->contact_events() &&
        fixed_world->step_count() == event_world->step_count() &&
        fixed_world->metrics().created() == event_world->metrics().created() &&
        fixed_world->metrics().delivered() == event_world->metrics().delivered() &&
        fixed_world->metrics().relayed() == event_world->metrics().relayed() &&
        fixed_world->metrics().dropped() == event_world->metrics().dropped() &&
        fixed_world->metrics().expired() == event_world->metrics().expired() &&
        fixed_world->metrics().latency_mean() == event_world->metrics().latency_mean() &&
        fixed_world->metrics().goodput() == event_world->metrics().goodput();
    if (!same_sim) {
      std::fprintf(stderr,
                   "FATAL: event-kernel metric mismatch at n=%d — the kinetic "
                   "and fixed-dt paths diverged\n", n);
      return 1;
    }
    const double grid_steps = static_cast<double>(fixed_world->step_count());
    const double fixed_sps = grid_steps / fixed_secs;
    const double event_sps = grid_steps / event_secs;
    const double speedup = event_sps / fixed_sps;
    std::printf("n=%-5d fixed-dt %9.1f steps/s | event %9.1f steps/s | %.2fx "
                "| %lld contacts\n",
                n, fixed_sps, event_sps, speedup,
                static_cast<long long>(event_world->contact_events()));
    std::fflush(stdout);
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "      {\"nodes\": %d, \"fixed_steps_per_sec\": %.1f, "
                  "\"event_steps_per_sec\": %.1f, \"speedup\": %.2f}%s\n",
                  n, fixed_sps, event_sps, speedup,
                  i + 1 < kernel_nodes.size() ? "," : "");
    json += buf;
  }
  json += "    ]\n  },\n";

  // Allocation contract: traffic-free steady state must not heap-allocate.
  // Warm-up must be long enough for the roaming nodes to have visited every
  // grid cell of the bounded arena, or first-visit cell creation shows up.
  const int alloc_nodes = smoke ? 200 : 1000;
  const int alloc_warmup = std::max(warmup, smoke ? 500 : 4000);
  const double incr_allocs = bench::allocs_per_step(
      alloc_nodes, /*with_traffic=*/false, alloc_warmup, steps, density);
  std::printf("allocs/step after warm-up (n=%d, no traffic): %.4f\n", alloc_nodes,
              incr_allocs);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"allocs_per_step\": {\"nodes\": %d, \"incremental\": %.4f}\n}\n",
                alloc_nodes, incr_allocs);
  json += buf;

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
