// apply_override property tests over the ENTIRE key vocabulary: for every
// key spec_key_names() reports (walking the map-kind and mobility-model
// registries, so new keys are covered the moment they register),
// override -> serialize -> parse must round-trip. Also pins the loud
// rejection of scenario.seed / duplicate sweep axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "mobility/registry.hpp"
#include "util/value_parse.hpp"

namespace dtn::harness {
namespace {

/// Serialized key -> value map of a spec's canonical config.
std::map<std::string, std::string> config_map(const ScenarioSpec& spec) {
  std::map<std::string, std::string> kv;
  std::istringstream in(to_config(spec));
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    kv[trim(line.substr(0, eq))] = trim(line.substr(eq + 1));
  }
  return kv;
}

/// Specs that together cover every registry entry's vocabulary: each map
/// kind, and one group per mobility model (grouped by a compatible map).
std::vector<ScenarioSpec> vocabulary_specs() {
  std::vector<ScenarioSpec> specs;
  {
    ScenarioSpec spec;  // downtown: bus + stationary + random_waypoint
    spec.map.kind = "downtown";
    for (const auto& [name, model] :
         std::vector<std::pair<std::string, std::string>>{
             {"buses", "bus"}, {"relays", "stationary"}, {"walkers", "random_waypoint"}}) {
      GroupSpec g;
      g.name = name;
      g.model = model;
      g.count = 4;
      spec.groups.push_back(std::move(g));
    }
    spec.groups[1].protocol = "Epidemic";  // exercise the override key
    // Traffic workload vocabulary: an on-off profile plus two matrix
    // entries, so every traffic.<src>.<dst>.<param> key is serialized.
    spec.traffic.profile = sim::TrafficProfile::kOnOff;
    spec.traffic.on_s = 600.0;
    spec.traffic.off_s = 300.0;
    spec.traffic_matrix = {TrafficEntrySpec{"buses", "relays", 20.0, 30.0, 4096, 2.0},
                           TrafficEntrySpec{"walkers", "walkers", 40.0, 60.0, 1024, 1.0}};
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;  // open_field: community (+ diurnal traffic)
    spec.map.kind = "open_field";
    GroupSpec g;
    g.name = "campus";
    g.model = "community";
    g.count = 4;
    spec.groups.push_back(std::move(g));
    spec.traffic.profile = sim::TrafficProfile::kDiurnal;
    spec.traffic.period_s = 3600.0;
    spec.traffic.phase_s = 900.0;
    specs.push_back(std::move(spec));
  }
  {
    ScenarioSpec spec;  // trace: trace playback
    spec.map.kind = "trace";
    spec.map.params.trace_file = "fixtures/example.trace";
    GroupSpec g;
    g.name = "replay";
    g.model = "trace";
    g.count = 2;
    spec.groups.push_back(std::move(g));
    spec.traffic_file = "fixtures/example_traffic.trace";  // engages traffic.file
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(SpecOverrideProperty, EveryVocabularyKeyRoundTripsThroughOverride) {
  for (const ScenarioSpec& base : vocabulary_specs()) {
    const std::map<std::string, std::string> serialized = config_map(base);
    for (const std::string& key : spec_key_names(base)) {
      const auto it = serialized.find(key);
      if (it == serialized.end()) {
        // Write-only aliases (scenario.nodes) and engaged-only keys
        // (group.<g>.protocol when empty, world.event_kernel when false) are
        // absent from the canonical form; overriding them must still work.
        ScenarioSpec spec = base;
        if (key == "scenario.nodes") {
          if (base.groups.size() == 1) {
            ASSERT_NO_THROW(apply_override(spec, key, "9")) << key;
            EXPECT_EQ(spec.groups[0].count, 9) << key;
          }
          continue;
        }
        std::string value = "true";  // world.event_kernel
        if (key.size() > 9 && key.substr(key.size() - 9) == ".protocol") {
          value = "DirectDelivery";
        }
        ASSERT_NO_THROW(apply_override(spec, key, value)) << key;
        // Engaging the key makes it serializable; the result must re-parse
        // to the identical spec.
        const std::string config = to_config(spec);
        EXPECT_EQ(to_config(parse_spec(config)), config) << key;
        continue;
      }
      // Identity property: overriding a key with its own serialized value
      // must not change the canonical form.
      ScenarioSpec spec = base;
      ASSERT_NO_THROW(apply_override(spec, key, it->second)) << key;
      EXPECT_EQ(to_config(spec), to_config(base)) << key;
    }
  }
}

TEST(SpecOverrideProperty, PerturbedNumericKeysSurviveSerializeParse) {
  // Overriding with a NEW value must land in the serialized form verbatim
  // and survive a parse round trip — for every numeric key in the table.
  for (const ScenarioSpec& base : vocabulary_specs()) {
    for (const auto& [key, value] : config_map(base)) {
      double numeric = 0.0;
      if (!util::parse_value(value, numeric)) continue;  // strings/bools
      const std::string perturbed = util::format_value(numeric + 1.0);
      ScenarioSpec spec = base;
      ASSERT_NO_THROW(apply_override(spec, key, perturbed)) << key;
      const std::map<std::string, std::string> after = config_map(spec);
      ASSERT_TRUE(after.count(key)) << key;
      EXPECT_EQ(after.at(key), perturbed) << key;
      const std::string config = to_config(spec);
      EXPECT_EQ(to_config(parse_spec(config)), config) << key;
    }
  }
}

TEST(SpecOverrideProperty, SuggestionVocabularyTracksTheRegistries) {
  // spec_key_names is the suggestion list; it must contain at least every
  // serialized key plus the new-feature keys this PR's docs promise.
  const std::vector<ScenarioSpec> specs = vocabulary_specs();
  for (const ScenarioSpec& base : specs) {
    const std::vector<std::string> keys = spec_key_names(base);
    auto has = [&keys](const std::string& k) {
      return std::find(keys.begin(), keys.end(), k) != keys.end();
    };
    for (const auto& [key, value] : config_map(base)) {
      EXPECT_TRUE(has(key)) << key << " serialized but not in spec_key_names";
    }
    EXPECT_TRUE(has("communities.warmup"));
    EXPECT_TRUE(has("traffic.profile"));
    EXPECT_TRUE(has("traffic.file"));
    for (const auto& e : base.traffic_matrix) {
      EXPECT_TRUE(has("traffic." + e.src + "." + e.dst + ".weight"));
    }
    for (const auto& g : base.groups) {
      EXPECT_TRUE(has("group." + g.name + ".protocol"));
    }
  }
}

TEST(SpecOverrideProperty, SeedAxisAndDuplicateAxesStayLoudlyRejected) {
  SpecSweepOptions options;
  options.base = to_spec(BusScenarioParams{});
  options.seeds = 1;

  options.axes = {SweepAxis{"scenario.seed", {"1", "2"}}};
  try {
    run_spec_sweep(options);
    FAIL() << "scenario.seed axis must be rejected";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("scenario.seed cannot be a sweep axis"),
              std::string::npos);
  }

  options.axes = {SweepAxis{"protocol.copies", {"2", "4"}},
                  SweepAxis{"protocol.copies", {"8"}}};
  try {
    run_spec_sweep(options);
    FAIL() << "duplicate axes must be rejected";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate sweep axis"), std::string::npos);
  }

  // The new vocabulary is sweepable like everything else.
  options.axes = {SweepAxis{"communities.warmup", {"100", "200"}}};
  options.base.duration_s = 20.0;
  options.base.traffic.ttl = 10.0;
  options.base.groups[0].count = 4;
  EXPECT_NO_THROW(run_spec_sweep(options));

  // Matrix-entry keys are sweepable axes (the bench's hub-load campaign).
  options.axes = {SweepAxis{"traffic.buses.buses.weight", {"1", "2"}}};
  EXPECT_NO_THROW(run_spec_sweep(options));
}

}  // namespace
}  // namespace dtn::harness
