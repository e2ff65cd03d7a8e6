// dtnbench — the benchmark's workload process. perfbench/run.py starts one
// per measured run, so every run owns its process and its peak RSS.
//
//   dtnbench info
//   dtnbench run      --root R --workload W --seed S
//   dtnbench trace    --root R --workload W --seed S --spans FILE
//   dtnbench campaign --root R --cfg F [--set k=v]... --axis k=v1,v2...
//                     --seeds N --seed-base B --journal J... --merged FILE
//                     --spans FILE
//
// `run` composes a scenario from the library's public pieces (the same
// calls ScenarioRunner::run makes), so it can time set-up apart from
// World::run. `trace` does the same with spans around each call, then
// replays the mobility and grid layers standalone, probes the EER
// estimators, runs a no-op-router baseline, and reruns the scenario
// through ScenarioRunner::run to check the composition. `campaign` times
// the per-point parse/build of a sweep grid and merges shard journals that
// `dtnsim sweep --shard` left behind into a results file. Each mode prints one JSON object on
// stdout; run.py turns them into the benchmark's metrics.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dijkstra.hpp"
#include "core/md_builder.hpp"
#include "geo/spatial_grid.hpp"
#include "harness/journal.hpp"
#include "harness/scenario.hpp"
#include "harness/spec.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "mobility/movement_engine.hpp"
#include "routing/eer.hpp"
#include "routing/factory.hpp"
#include "sim/world.hpp"
#include "tracer.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace dtn;
using dtnbench::Scope;
using dtnbench::Tracer;

// ---- output ------------------------------------------------------------------

/// Builds one flat-or-nested JSON object; values are appended verbatim or
/// formatted with every digit a double carries.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
    return *this;
  }
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& flag(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ---- workloads ---------------------------------------------------------------

/// A single-run workload: a scenario file (relative to the checkout root)
/// plus the overrides that size it. The seed comes from the command line.
struct WorkloadDef {
  const char* name;
  const char* cfg;
  std::vector<std::pair<std::string, std::string>> overrides;
};

const WorkloadDef* find_workload(const std::string& name) {
  static const std::vector<WorkloadDef> table = {
      // The paper's protocol on the paper's world at its largest n.
      {"bus_eer",
       "examples/helsinki_buses.cfg",
       {{"protocol.name", "EER"}, {"group.buses.count", "240"},
        {"scenario.duration", "500"}, {"traffic.ttl", "250"}}},
      // Same fixed-dt bus path with flooding instead of estimators.
      {"bus_epidemic",
       "examples/helsinki_buses.cfg",
       {{"protocol.name", "Epidemic"}, {"group.buses.count", "400"},
        {"scenario.duration", "1000"}, {"traffic.ttl", "500"}}},
      // Sparse open field on the kinetic event calendar.
      {"field_kinetic", "perfbench/field_kinetic.cfg", {}},
  };
  for (const auto& def : table) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

harness::ScenarioSpec parse_workload(const std::string& text, const WorkloadDef& def,
                                     std::uint64_t seed) {
  harness::ScenarioSpec spec = harness::parse_spec(text);
  for (const auto& [key, value] : def.overrides) harness::apply_override(spec, key, value);
  harness::apply_override(spec, "scenario.seed", std::to_string(seed));
  harness::validate_spec(spec);
  return spec;
}

// ---- composed build (the calls ScenarioRunner::run makes) --------------------

/// The network-wide traffic flow of a spec, as ScenarioRunner resolves it.
/// The benchmark's workloads use neither traffic matrices nor traces.
sim::TrafficParams workload_traffic(const harness::ScenarioSpec& spec) {
  if (!spec.traffic_matrix.empty() || spec.traffic.profile == sim::TrafficProfile::kTrace) {
    throw std::invalid_argument("benchmark workloads use the network-wide traffic flow only");
  }
  sim::TrafficParams traffic = spec.traffic;
  if (spec.full_ttl_window) {
    traffic.stop = std::min(traffic.stop, spec.duration_s - traffic.ttl);
  }
  traffic.matrix.clear();
  return traffic;
}

std::shared_ptr<const core::CommunityTable> workload_communities(
    const harness::ScenarioSpec& spec, const geo::BuiltMap& map) {
  if (spec.communities_override) return spec.communities_override;
  if (spec.communities.source == "detected") {
    throw std::invalid_argument("benchmark workloads do not detect communities");
  }
  std::vector<int> cid;
  int first_node = 0;
  for (const auto& group : spec.groups) {
    const harness::GroupBuildContext ctx{spec, map, first_node, {}};
    if (spec.communities.source == "round_robin") {
      harness::round_robin_communities(ctx, group, cid);
    } else {
      harness::find_group_builder(group.model)->assign_communities(ctx, group, cid);
    }
    first_node += group.count;
  }
  return std::make_shared<const core::CommunityTable>(std::move(cid));
}

/// Builds the spec's world on an already built map: communities, nodes and
/// routers, metric groups, traffic.
std::unique_ptr<sim::World> build_world(const harness::ScenarioSpec& spec,
                                        const geo::BuiltMap& map, Tracer* tracer) {
  std::shared_ptr<const core::CommunityTable> communities;
  {
    Scope span(tracer, "harness.communities");
    communities = workload_communities(spec, map);
  }
  sim::WorldConfig config = spec.world;
  config.seed = spec.seed;
  auto world = std::make_unique<sim::World>(config);
  {
    Scope span(tracer, "harness.add_nodes");
    int first_node = 0;
    for (const auto& group : spec.groups) {
      routing::ProtocolConfig protocol = harness::resolved_protocol(spec, group);
      protocol.communities = communities;
      harness::GroupBuildContext ctx{spec, map, first_node, {}};
      ctx.make_router = [&protocol] { return routing::create_router(protocol); };
      harness::find_group_builder(group.model)->add_nodes(*world, ctx, group);
      first_node += group.count;
    }
  }
  std::vector<int> node_group;
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    node_group.insert(node_group.end(), static_cast<std::size_t>(spec.groups[g].count),
                      static_cast<int>(g));
  }
  world->metrics().set_groups(std::move(node_group), static_cast<int>(spec.groups.size()));
  {
    Scope span(tracer, "sim.set_traffic");
    world->set_traffic(workload_traffic(spec));
  }
  return world;
}

geo::BuiltMap build_map(const harness::ScenarioSpec& spec) {
  return geo::find_map_kind(spec.map.kind)->build(spec.map.params, spec.seed);
}

// ---- simulated statistics ----------------------------------------------------

/// What the output check compares. latency and goodput are compared bit
/// for bit.
struct Stats {
  std::int64_t created = 0, delivered = 0, relayed = 0, transfers_started = 0,
               transfers_aborted = 0, dropped = 0, expired = 0, control_bytes = 0,
               contact_events = 0, steps = 0;
  double latency = 0.0, goodput = 0.0;

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ULL;
      }
    };
    for (const std::int64_t v : {created, delivered, relayed, transfers_started,
                                 transfers_aborted, dropped, expired, control_bytes,
                                 contact_events, steps}) {
      mix(static_cast<std::uint64_t>(v));
    }
    mix(std::bit_cast<std::uint64_t>(latency));
    mix(std::bit_cast<std::uint64_t>(goodput));
    return h;
  }

  [[nodiscard]] std::string json() const {
    return JsonObject()
        .num("created", created)
        .num("delivered", delivered)
        .num("relayed", relayed)
        .num("transfers_started", transfers_started)
        .num("transfers_aborted", transfers_aborted)
        .num("dropped", dropped)
        .num("expired", expired)
        .num("control_bytes", control_bytes)
        .num("contact_events", contact_events)
        .num("steps", steps)
        .num("latency", latency)
        .num("goodput", goodput)
        .text();
  }
};

Stats stats_of(const sim::Metrics& m, std::int64_t contact_events, std::int64_t steps) {
  Stats s;
  s.created = m.created();
  s.delivered = m.delivered();
  s.relayed = m.relayed();
  s.transfers_started = m.transfers_started();
  s.transfers_aborted = m.transfers_aborted();
  s.dropped = m.dropped();
  s.expired = m.expired();
  s.control_bytes = m.control_bytes();
  s.contact_events = contact_events;
  s.steps = steps;
  s.latency = m.latency_mean();
  s.goodput = m.goodput();
  return s;
}

Stats stats_of(const sim::World& world) {
  return stats_of(world.metrics(), world.contact_events(), world.step_count());
}

// ---- dtnbench run ------------------------------------------------------------

/// Set-up is a millisecond or so, so each run process sets up this many
/// times (reading, parsing, building from scratch) and simulates the last.
constexpr int kSetupRepeats = 5;

int cmd_run(const std::string& root, const WorkloadDef& def, std::uint64_t seed) {
  std::vector<double> setup_s;
  harness::ScenarioSpec spec;
  std::unique_ptr<sim::World> world;
  for (int r = 0; r < kSetupRepeats; ++r) {
    world.reset();
    const std::int64_t t0 = dtnbench::now_ns();
    const std::string text = read_file(root + "/" + def.cfg);
    spec = parse_workload(text, def, seed);
    const geo::BuiltMap map = build_map(spec);
    world = build_world(spec, map, nullptr);
    setup_s.push_back(seconds_between(t0, dtnbench::now_ns()));
  }
  const std::int64_t t1 = dtnbench::now_ns();
  world->run(spec.duration_s);
  const std::int64_t t2 = dtnbench::now_ns();
  const Stats stats = stats_of(*world);
  std::printf("%s\n", JsonObject()
                          .raw("setup_s", json_list(setup_s))
                          .num("run_s", seconds_between(t1, t2))
                          .num("sim_seconds", spec.duration_s)
                          .flag("event_kernel_used", world->event_kernel_used())
                          .raw("stats", stats.json())
                          .str("digest", hex64(stats.digest()))
                          .text()
                          .c_str());
  return 0;
}

// ---- dtnbench trace ----------------------------------------------------------

/// Protocol with no routing at all: the baseline that leaves movement,
/// contacts, traffic and the TTL sweep.
class NullRouter final : public sim::Router {
 public:
  [[nodiscard]] std::string name() const override { return "BenchNull"; }
};

bool same_bits(geo::Vec2 a, geo::Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

/// A standalone MovementEngine with the world's lanes: same routes or
/// waypoint bounds, same per-node movement streams.
mobility::MovementEngine replay_engine(const harness::ScenarioSpec& spec,
                                       const geo::BuiltMap& map) {
  mobility::MovementEngine engine;
  for (const auto& group : spec.groups) {
    for (int v = 0; v < group.count; ++v) {
      int node = 0;
      if (group.model == "bus") {
        node = engine.add_bus(map.routes[static_cast<std::size_t>(v) % map.routes.size()],
                              group.params.bus);
      } else if (group.model == "random_waypoint") {
        mobility::RandomWaypointParams params = group.params.waypoint;
        params.world_min = map.world_min;
        params.world_max = map.world_max;
        node = engine.add_waypoint(params);
      } else {
        throw std::invalid_argument("no mobility replay for model '" + group.model + "'");
      }
      engine.init_node(node,
                       util::derive_stream(spec.seed, static_cast<std::uint64_t>(node),
                                           util::StreamPurpose::kMovement),
                       0.0);
    }
  }
  return engine;
}

struct ReplayResult {
  bool positions_equal = true;
  bool fixed_dt = false;         ///< mobility + grid replay ran (else kinetic)
  std::int64_t link_ups = 0;     ///< grid replay's contact-up count
  std::int64_t pairs_in_range = 0;
  double occupied_cells_mean = 0.0;
  std::int64_t node_steps = 0;
  std::int64_t kinetic_segments = 0;
  double step_all_s = 0.0, grid_update_s = 0.0, all_pairs_s = 0.0, kinetic_advance_s = 0.0;
};

/// Replays the world's movement (fixed-dt lanes plus a SpatialGrid fed the
/// replayed positions, or the kinetic segments) and checks the final
/// positions against World::position_of, bit for bit.
ReplayResult replay(const harness::ScenarioSpec& spec, const geo::BuiltMap& map,
                    const sim::World& world, Tracer& tracer) {
  Scope replay_span(&tracer, "mobility.replay");
  ReplayResult out;
  mobility::MovementEngine engine = replay_engine(spec, map);
  const std::int64_t steps = world.step_count();
  const double dt = spec.world.step_dt;
  const int n = static_cast<int>(engine.size());
  if (world.event_kernel_used()) {
    {
      Scope span(&tracer, "mobility.kinetic_start");
      engine.kinetic_start(0.0);
    }
    const double end_time = static_cast<double>(steps) * dt;
    const int advance = tracer.aggregate("mobility.kinetic_advance");
    for (int node = 0; node < n; ++node) {
      while (engine.kinetic_segment(node).t_end <= end_time) {
        const std::int64_t t0 = dtnbench::now_ns();
        engine.kinetic_advance(node);
        tracer.add(advance, t0, dtnbench::now_ns());
        ++out.kinetic_segments;
      }
    }
    engine.kinetic_sync_positions(end_time);
    out.kinetic_advance_s = tracer.seconds(advance);
  } else {
    out.fixed_dt = true;
    geo::SpatialGrid grid(spec.world.radio_range);
    std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
    std::vector<std::uint64_t> prev, curr;
    double occupied_sum = 0.0;
    const int step_all = tracer.aggregate("mobility.step_all");
    const int update = tracer.aggregate("geo.grid_update");
    const int all_pairs = tracer.aggregate("geo.all_pairs");
    for (std::int64_t k = 1; k <= steps; ++k) {
      const std::int64_t t0 = dtnbench::now_ns();
      engine.step_all(static_cast<double>(k - 1) * dt, dt);
      const std::int64_t t1 = dtnbench::now_ns();
      grid.advance_epoch();
      const std::vector<geo::Vec2>& pos = engine.positions();
      for (int i = 0; i < n; ++i) grid.update(i, pos[static_cast<std::size_t>(i)]);
      const std::int64_t t2 = dtnbench::now_ns();
      grid.all_pairs_into(spec.world.radio_range, pairs);
      const std::int64_t t3 = dtnbench::now_ns();
      tracer.add(step_all, t0, t1);
      tracer.add(update, t1, t2);
      tracer.add(all_pairs, t2, t3);
      out.pairs_in_range += static_cast<std::int64_t>(pairs.size());
      occupied_sum += static_cast<double>(grid.occupied_cell_count());
      curr.clear();
      for (const auto& [a, b] : pairs) {
        curr.push_back(static_cast<std::uint64_t>(std::min(a, b)) << 32 |
                       static_cast<std::uint64_t>(std::max(a, b)));
      }
      std::sort(curr.begin(), curr.end());
      std::size_t j = 0;
      for (const std::uint64_t key : curr) {
        while (j < prev.size() && prev[j] < key) ++j;
        if (j == prev.size() || prev[j] != key) ++out.link_ups;
      }
      std::swap(prev, curr);
    }
    out.node_steps = steps * n;
    out.step_all_s = tracer.seconds(step_all);
    out.grid_update_s = tracer.seconds(update);
    out.all_pairs_s = tracer.seconds(all_pairs);
    out.occupied_cells_mean = steps > 0 ? occupied_sum / static_cast<double>(steps) : 0.0;
  }
  for (int node = 0; node < n; ++node) {
    if (!same_bits(engine.position(node), world.position_of(node))) {
      out.positions_equal = false;
    }
  }
  return out;
}

/// End-of-run estimator probes on a fixed node sample (EER worlds only),
/// pooled over the traced repeats.
struct CoreProbes {
  std::vector<double> memd_cold_us, memd_warm_us, eev_us, build_md_us, dijkstra_us,
      mi_merge_us;
  double history_pairs_mean = 0.0;
  bool ran = false;
};

void probe_core(const harness::ScenarioSpec& spec, sim::World& world, Tracer& tracer,
                CoreProbes& out) {
  const int n = world.node_count();
  std::vector<routing::EerRouter*> eer(static_cast<std::size_t>(n), nullptr);
  std::int64_t history_pairs = 0;
  for (int i = 0; i < n; ++i) {
    eer[static_cast<std::size_t>(i)] = dynamic_cast<routing::EerRouter*>(&world.router_of(i));
    if (eer[static_cast<std::size_t>(i)] == nullptr) return;
    history_pairs +=
        static_cast<std::int64_t>(eer[static_cast<std::size_t>(i)]->history().pair_count());
  }
  out.ran = true;
  out.history_pairs_mean = static_cast<double>(history_pairs) / static_cast<double>(n);
  Scope probes_span(&tracer, "core.probes");
  const int cold = tracer.aggregate("core.memd_cold");
  const int warm = tracer.aggregate("core.memd_warm");
  const int eev = tracer.aggregate("core.eev");
  const int build = tracer.aggregate("core.build_md");
  const int dijkstra = tracer.aggregate("core.dijkstra");
  const int merge = tracer.aggregate("core.mi_merge");
  const auto timed = [&tracer](int id, std::vector<double>& samples, auto&& call) {
    const std::int64_t t0 = dtnbench::now_ns();
    call();
    const std::int64_t t1 = dtnbench::now_ns();
    tracer.add(id, t0, t1);
    samples.push_back(static_cast<double>(t1 - t0) * 1e-3);
  };
  constexpr int kSample = 16;
  const double tau = spec.protocol.alpha * spec.traffic.ttl;
  double sink = 0.0;
  for (int k = 0; k < kSample; ++k) {
    const int self = k * n / kSample;
    const int dst = (self + n / 2) % n;
    routing::EerRouter& router = *eer[static_cast<std::size_t>(self)];
    // A time bucket no run or earlier probe has touched: MEMD recomputes.
    const double t = world.now() + 10.0 * (k + 1);
    timed(cold, out.memd_cold_us, [&] { sink += router.memd(dst, t); });
    timed(warm, out.memd_warm_us, [&] { sink += router.memd(dst, t); });
    timed(eev, out.eev_us, [&] { sink += router.eev(t, tau); });
    std::vector<double> md;
    timed(build, out.build_md_us,
          [&] { md = core::build_md(router.mi(), router.history(), self, t); });
    timed(dijkstra, out.dijkstra_us,
          [&] { sink += core::dijkstra_dense(md, n, self).dist.back(); });
    core::MiMatrix mine = router.mi();
    const core::MiMatrix theirs = eer[static_cast<std::size_t>((self + 1) % n)]->mi();
    timed(merge, out.mi_merge_us, [&] { sink += mine.merge_from(theirs); });
  }
  if (sink == 42.0) std::fprintf(stderr, "\n");  // keeps the probed calls observable
}

/// The traced pass measures the same scenario this many times; run.py
/// reports the medians, and every count must repeat exactly.
constexpr int kTraceRepeats = 5;

/// One traced repeat: the composed build and World::run under spans, the
/// replays and estimator probes on the finished world, then the no-op
/// router baseline. Returns the repeat's JSON record.
std::string traced_repeat(const std::string& text, const WorkloadDef& def,
                          std::uint64_t seed, const harness::ScenarioSpec& null_spec,
                          Tracer& tracer, CoreProbes& core, Stats& stats) {
  const std::int64_t t0 = dtnbench::now_ns();
  const int setup_id = tracer.open("harness.setup");
  harness::ScenarioSpec spec;
  int parse_id = 0;
  {
    Scope span(&tracer, "harness.parse");
    parse_id = span.id();
    spec = parse_workload(text, def, seed);
  }
  geo::BuiltMap map;
  std::unique_ptr<sim::World> world;
  int build_id = 0;
  int map_id = 0;
  {
    Scope span(&tracer, "harness.build");
    build_id = span.id();
    {
      Scope map_span(&tracer, "geo.map_build");
      map_id = map_span.id();
      map = build_map(spec);
    }
    world = build_world(spec, map, &tracer);
  }
  tracer.close(setup_id);
  const std::int64_t t1 = dtnbench::now_ns();
  {
    Scope span(&tracer, "sim.run");
    world->run(spec.duration_s);
  }
  const std::int64_t t2 = dtnbench::now_ns();
  stats = stats_of(*world);
  const bool kernel_used = world->event_kernel_used();
  const ReplayResult rep = replay(spec, map, *world, tracer);
  probe_core(spec, *world, tracer, core);
  world.reset();

  // No-op routers on the same world: everything but routing.
  auto null_world = build_world(null_spec, map, nullptr);
  int null_run_id = 0;
  {
    Scope span(&tracer, "sim.null_router_run");
    null_run_id = span.id();
    null_world->run(null_spec.duration_s);
  }
  const std::int64_t null_contacts = null_world->contact_events();

  JsonObject checks;
  checks.flag("mobility_positions", rep.positions_equal)
      .flag("null_router_contacts", null_contacts == stats.contact_events);
  if (rep.fixed_dt) checks.flag("grid_link_ups", rep.link_ups == stats.contact_events);
  return JsonObject()
      .num("setup_s", seconds_between(t0, t1))
      .num("run_s", seconds_between(t1, t2))
      .num("parse_s", tracer.seconds(parse_id))
      .num("build_s", tracer.seconds(build_id))
      .num("map_build_s", tracer.seconds(map_id))
      .num("null_router_s", tracer.seconds(null_run_id))
      .num("step_all_s", rep.step_all_s)
      .num("grid_update_s", rep.grid_update_s)
      .num("all_pairs_s", rep.all_pairs_s)
      .num("kinetic_advance_s", rep.kinetic_advance_s)
      .flag("event_kernel_used", kernel_used)
      .raw("stats", stats.json())
      .str("digest", hex64(stats.digest()))
      .raw("checks", checks.text())
      .num("node_steps", rep.node_steps)
      .num("pairs_in_range", rep.pairs_in_range)
      .num("occupied_cells_mean", rep.occupied_cells_mean)
      .num("kinetic_segments", rep.kinetic_segments)
      .text();
}

int cmd_trace(const std::string& root, const WorkloadDef& def, std::uint64_t seed,
              const std::string& spans_path) {
  Tracer tracer;
  const std::string text = read_file(root + "/" + def.cfg);
  const harness::ScenarioSpec spec = parse_workload(text, def, seed);
  harness::ScenarioSpec null_spec = spec;
  null_spec.protocol.name = "BenchNull";
  for (auto& group : null_spec.groups) group.protocol.clear();
  harness::validate_spec(null_spec);

  CoreProbes core;
  Stats stats;
  std::string repeats = "[";
  for (int r = 0; r < kTraceRepeats; ++r) {
    repeats += (r == 0 ? "" : ", ") +
               traced_repeat(text, def, seed, null_spec, tracer, core, stats);
  }
  repeats += "]";

  // The library's own entry point on the same spec: the composition check.
  harness::ScenarioResult runner_result;
  {
    Scope span(&tracer, "harness.runner_run");
    harness::ScenarioRunner runner;
    runner_result = runner.run(spec);
  }
  const Stats runner_stats =
      stats_of(runner_result.metrics, runner_result.contact_events,
               sim::World::step_count_for(spec.duration_s, spec.world.step_dt));

  if (!tracer.write_json(spans_path)) {
    throw std::runtime_error("cannot write spans to '" + spans_path + "'");
  }
  JsonObject samples;
  samples.raw("core.memd_cold_us", json_list(core.memd_cold_us))
      .raw("core.memd_warm_us", json_list(core.memd_warm_us))
      .raw("core.eev_us", json_list(core.eev_us))
      .raw("core.build_md_us", json_list(core.build_md_us))
      .raw("core.dijkstra_us", json_list(core.dijkstra_us))
      .raw("core.mi_merge_us", json_list(core.mi_merge_us));
  std::printf("%s\n", JsonObject()
                          .num("sim_seconds", spec.duration_s)
                          .num("nodes", static_cast<std::int64_t>(spec.node_count()))
                          .raw("repeats", repeats)
                          .str("runner_digest", hex64(runner_stats.digest()))
                          .flag("core_probed", core.ran)
                          .num("history_pairs_mean", core.history_pairs_mean)
                          .raw("samples", samples.text())
                          .str("spans_file", spans_path)
                          .text()
                          .c_str());
  return 0;
}

// ---- dtnbench campaign -------------------------------------------------------

/// The campaign's options exactly as `dtnsim sweep` builds them from the
/// same flags (journal fingerprints must match).
harness::SpecSweepOptions campaign_options(const std::string& cfg_path,
                                           const util::Flags& flags) {
  harness::SpecSweepOptions options;
  options.base = harness::load_spec_with_overrides(cfg_path, flags.get_list("set"));
  for (const auto& axis_arg : flags.get_list("axis")) {
    const auto [key, csv] = harness::split_assignment(axis_arg);
    options.axes.push_back({key, util::split_csv(csv)});
  }
  options.seeds = static_cast<int>(flags.get_int("seeds", 2));
  options.seed_base = static_cast<std::uint64_t>(flags.get_int("seed-base", 1));
  options.threads = 1;
  options.isolate_failures = true;
  return options;
}

int cmd_campaign(const std::string& root, const util::Flags& flags,
                 const std::string& spans_path) {
  Tracer tracer;
  const std::string cfg_path = root + "/" + flags.get_string("cfg", "");
  const harness::SpecSweepOptions options = campaign_options(cfg_path, flags);

  // Every grid point's parse/validate and every (point, seed) build, as
  // the sweep's workers do them, summed over the grid.
  const std::string text = read_file(cfg_path);
  std::vector<std::vector<std::pair<std::string, std::string>>> points(1);
  for (const auto& axis : options.axes) {
    std::vector<std::vector<std::pair<std::string, std::string>>> next;
    for (const auto& point : points) {
      for (const auto& value : axis.values) {
        next.push_back(point);
        next.back().emplace_back(axis.key, value);
      }
    }
    points = std::move(next);
  }
  const int parse = tracer.aggregate("harness.parse");
  const int build = tracer.aggregate("harness.build");
  const int map_build = tracer.aggregate("geo.map_build", build);
  for (const auto& point : points) {
    std::int64_t t0 = dtnbench::now_ns();
    harness::ScenarioSpec spec = harness::parse_spec(text);
    for (const auto& assignment : flags.get_list("set")) {
      const auto [key, value] = harness::split_assignment(assignment);
      harness::apply_override(spec, key, value);
    }
    for (const auto& [key, value] : point) harness::apply_override(spec, key, value);
    harness::validate_spec(spec);
    tracer.add(parse, t0, dtnbench::now_ns());
    for (int s = 0; s < options.seeds; ++s) {
      spec.seed = options.seed_base + static_cast<std::uint64_t>(s);
      t0 = dtnbench::now_ns();
      const geo::BuiltMap map = build_map(spec);
      const std::int64_t t1 = dtnbench::now_ns();
      const auto world = build_world(spec, map, nullptr);
      tracer.add(map_build, t0, t1);
      tracer.add(build, t0, dtnbench::now_ns());
    }
  }

  const std::vector<std::string> journals = flags.get_list("journal");
  std::int64_t journal_records = 0;
  for (const auto& path : journals) {
    journal_records += static_cast<std::int64_t>(harness::read_journal(path).records.size());
  }
  harness::SweepMergeStats merge_stats;
  std::vector<harness::SpecPointResult> merged;
  int merge_id = 0;
  {
    Scope span(&tracer, "harness.merge");
    merge_id = span.id();
    merged = harness::merge_sweep_journals(options, journals, &merge_stats);
  }
  const std::string merged_path = flags.get_string("merged", "");
  std::ofstream merged_out(merged_path, std::ios::binary);
  merged_out << harness::sweep_results_json(options, merged);
  if (!merged_out.flush()) {
    throw std::runtime_error("cannot write merged results to '" + merged_path + "'");
  }

  if (!tracer.write_json(spans_path)) {
    throw std::runtime_error("cannot write spans to '" + spans_path + "'");
  }
  std::printf("%s\n",
              JsonObject()
                  .num("points", static_cast<std::int64_t>(points.size()))
                  .num("parse_s", tracer.seconds(parse))
                  .num("build_s", tracer.seconds(build))
                  .num("map_build_s", tracer.seconds(map_build))
                  .num("merge_s", tracer.seconds(merge_id))
                  .num("journal_records", journal_records)
                  .num("merged_ok", static_cast<std::int64_t>(merge_stats.points_ok))
                  .str("spans_file", spans_path)
                  .text()
                  .c_str());
  return 0;
}

// ---- dtnbench info -----------------------------------------------------------

int cmd_info() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = DTNBENCH_DTN_SANITIZE != 0;
#endif
  std::printf("%s\n", JsonObject()
                          .str("compiler", std::string("g++ ") + __VERSION__)
                          .str("build_type", DTNBENCH_BUILD_TYPE)
                          .str("cxx_flags", DTNBENCH_CXX_FLAGS)
                          .flag("ndebug", ndebug)
                          .flag("sanitized", sanitized)
                          .text()
                          .c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: dtnbench info\n"
               "       dtnbench run --root R --workload W --seed S\n"
               "       dtnbench trace --root R --workload W --seed S --spans FILE\n"
               "       dtnbench campaign --root R --cfg F [--set k=v]... --axis k=v,..."
               " --seeds N --seed-base B --journal J... --merged FILE --spans FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  if (flags.positional().size() != 1) return usage();
  const std::string mode = flags.positional()[0];
  try {
    routing::register_protocol("BenchNull", [](const routing::ProtocolConfig&) {
      return std::make_unique<NullRouter>();
    });
    if (mode == "info") return cmd_info();
    const std::string root = flags.get_string("root", ".");
    if (mode == "campaign") return cmd_campaign(root, flags, flags.get_string("spans", ""));
    const WorkloadDef* def = find_workload(flags.get_string("workload", ""));
    if (def == nullptr) {
      std::fprintf(stderr, "dtnbench: unknown workload '%s'\n",
                   flags.get_string("workload", "").c_str());
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    if (mode == "run") return cmd_run(root, *def, seed);
    if (mode == "trace") return cmd_trace(root, *def, seed, flags.get_string("spans", ""));
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dtnbench: %s\n", e.what());
    return 1;
  }
}
