// Spec parser diagnostics: line-numbered unknown-key and bad-value
// reporting, multi-error collection, suggestions, and the structural rules
// (group declaration order, scenario.nodes alias, validate_spec).
#include <limits>

#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/spec_io.hpp"
#include "test_support.hpp"

namespace dtn::harness {
namespace {

std::vector<SpecDiagnostic> diagnostics_of(const std::string& text) {
  ScenarioSpec spec;
  std::vector<SpecDiagnostic> diagnostics;
  EXPECT_FALSE(try_parse_spec(text, spec, diagnostics));
  return diagnostics;
}

TEST(SpecDiagnostics, UnknownTopLevelKeyHasLineNumberAndSuggestion) {
  const auto diagnostics = diagnostics_of(
      "scenario.duration = 100\n"
      "scenario.sed = 7\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_NE(diagnostics[0].message.find("unknown key 'scenario.sed'"),
            std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("did you mean 'scenario.seed'"),
            std::string::npos);
}

TEST(SpecDiagnostics, BadValueNamesTheKeyAndLine) {
  const auto diagnostics = diagnostics_of("scenario.duration = fast\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 1);
  EXPECT_NE(diagnostics[0].message.find("bad value 'fast'"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("scenario.duration"), std::string::npos);
}

TEST(SpecDiagnostics, AllProblemsAreCollectedNotJustTheFirst) {
  const auto diagnostics = diagnostics_of(
      "scenario.duration = abc\n"
      "this line has no equals\n"
      "world.radio_rnage = 10\n");
  ASSERT_EQ(diagnostics.size(), 3u);
  EXPECT_EQ(diagnostics[0].line, 1);
  EXPECT_EQ(diagnostics[1].line, 2);
  EXPECT_EQ(diagnostics[2].line, 3);
  EXPECT_NE(diagnostics[1].message.find("expected 'key = value'"), std::string::npos);
  EXPECT_NE(diagnostics[2].message.find("did you mean 'world.radio_range'"),
            std::string::npos);
}

TEST(SpecDiagnostics, ParseSpecThrowsWithJoinedMessage) {
  try {
    parse_spec("protocol.copies = many\nscenario.bogus = 1\n");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.diagnostics().size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("spec:1:"), std::string::npos);
    EXPECT_NE(what.find("spec:2:"), std::string::npos);
  }
}

TEST(SpecDiagnostics, UnknownMobilityModelListsKnownOnes) {
  const auto diagnostics = diagnostics_of("group.g.model = teleport\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("unknown mobility model 'teleport'"),
            std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("random_waypoint"), std::string::npos);
}

TEST(SpecDiagnostics, GroupParamBeforeModelIsRejected) {
  const auto diagnostics = diagnostics_of("group.g.count = 10\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("group.g.model"), std::string::npos);
}

TEST(SpecDiagnostics, ModelSpecificKeyOfWrongModelNamesTheVocabulary) {
  const auto diagnostics = diagnostics_of(
      "group.g.model = bus\n"
      "group.g.home_prob = 0.9\n");  // community key on a bus group
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_NE(diagnostics[0].message.find("mobility model 'bus'"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("stop_spacing"), std::string::npos);
}

TEST(SpecDiagnostics, UnknownMapKindAndWrongKindKeys) {
  auto diagnostics = diagnostics_of("map.kind = torus\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("unknown map kind 'torus'"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("open_field"), std::string::npos);

  diagnostics = diagnostics_of(
      "map.kind = open_field\n"
      "map.rows = 12\n");  // downtown key on an open field
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_NE(diagnostics[0].message.find("map kind 'open_field'"), std::string::npos);
}

TEST(SpecDiagnostics, NodesAliasRequiresExactlyOneGroup) {
  auto diagnostics = diagnostics_of("scenario.nodes = 40\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("exactly one group"), std::string::npos);

  diagnostics = diagnostics_of(
      "group.a.model = bus\n"
      "group.b.model = random_waypoint\n"
      "scenario.nodes = 40\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 3);
}

TEST(SpecDiagnostics, CommunitiesSourceIsValidated) {
  const auto diagnostics = diagnostics_of("communities.source = psychic\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("auto | round_robin"), std::string::npos);
}

TEST(SpecDiagnostics, ApplyOverrideThrowsSpecError) {
  ScenarioSpec spec = test::bus_spec();
  EXPECT_THROW(apply_override(spec, "protocol.copeis", "3"), SpecError);
  EXPECT_THROW(apply_override(spec, "protocol.copies", "several"), SpecError);
  EXPECT_THROW(apply_override(spec, "group.nosuch.count", "3"), SpecError);
  EXPECT_NO_THROW(apply_override(spec, "protocol.copies", "3"));
  EXPECT_EQ(spec.protocol.copies, 3);
}

TEST(SpecDiagnostics, SplitAssignmentRejectsMissingEquals) {
  EXPECT_THROW(split_assignment("protocol.copies"), SpecError);
  const auto [key, value] = split_assignment(" protocol.copies = 5 ");
  EXPECT_EQ(key, "protocol.copies");
  EXPECT_EQ(value, "5");
}

TEST(SpecDiagnostics, ValidateSpecCatchesStructuralProblems) {
  ScenarioSpec empty;
  EXPECT_THROW(validate_spec(empty), std::invalid_argument);  // no groups

  ScenarioSpec bad_protocol = test::bus_spec();
  bad_protocol.protocol.name = "NoSuchProtocol";
  EXPECT_THROW(validate_spec(bad_protocol), std::invalid_argument);

  ScenarioSpec duplicate = test::bus_spec();
  duplicate.groups.push_back(duplicate.groups[0]);
  EXPECT_THROW(validate_spec(duplicate), std::invalid_argument);

  // Model/map capability mismatches are caught at validation, so
  // `dtnsim check` rejects exactly what run would reject.
  ScenarioSpec bus_on_field = test::bus_spec();
  apply_override(bus_on_field, "map.kind", "open_field");
  EXPECT_THROW(validate_spec(bus_on_field), std::invalid_argument);

  ScenarioSpec trace_on_downtown;
  apply_override(trace_on_downtown, "group.replay.model", "trace");
  apply_override(trace_on_downtown, "group.replay.count", "4");
  EXPECT_THROW(validate_spec(trace_on_downtown), std::invalid_argument);

  // Group names become config-key segments, so the serialized form must
  // stay parseable: dots, '#', '=', whitespace are rejected.
  for (const std::string bad_name : {"city.buses", "bu ses", "a#b", "a=b", ""}) {
    ScenarioSpec bad = test::bus_spec();
    bad.groups[0].name = bad_name;
    EXPECT_THROW(validate_spec(bad), std::invalid_argument) << bad_name;
  }

  // Model-specific enum-like strings: the parser vets these per key, but a
  // programmatic spec skips the parser — validation must still reject what
  // add_nodes would silently misinterpret (and to_config would emit in a
  // form load_spec refuses, breaking round-trip identity).
  ScenarioSpec bad_placement;
  apply_override(bad_placement, "group.relays.model", "stationary");
  apply_override(bad_placement, "group.relays.count", "4");
  bad_placement.groups[0].params.stationary.placement = "Uniform";
  EXPECT_THROW(validate_spec(bad_placement), std::invalid_argument);

  ScenarioSpec bad_margin;
  apply_override(bad_margin, "group.relays.model", "stationary");
  apply_override(bad_margin, "group.relays.count", "4");
  apply_override(bad_margin, "group.relays.margin", "-150");
  EXPECT_THROW(validate_spec(bad_margin), std::invalid_argument);

  ScenarioSpec ok = test::bus_spec();
  EXPECT_NO_THROW(validate_spec(ok));
}

TEST(SpecDiagnostics, ValidateSpecRejectsWorldValuesThatRunWrong) {
  // Each of these used to run to exit 0: a negative range still found
  // contacts, a zero or NaN step simulated nothing, a bus at speed 0
  // jumped to its next stop every step.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-10.0, 0.0, nan, inf}) {
    ScenarioSpec range = test::bus_spec();
    range.world.radio_range = bad;
    EXPECT_THROW(validate_spec(range), std::invalid_argument) << "radio_range " << bad;
    ScenarioSpec step = test::bus_spec();
    step.world.step_dt = bad;
    EXPECT_THROW(validate_spec(step), std::invalid_argument) << "step_dt " << bad;
  }
  for (const double bad : {0.0, -1.0, nan}) {
    ScenarioSpec bus = test::bus_spec();
    bus.groups[0].params.bus.speed_min = bad;
    EXPECT_THROW(validate_spec(bus), std::invalid_argument) << "speed_min " << bad;
  }
  ScenarioSpec ok = test::bus_spec();
  ok.world.radio_range = 1e-3;
  ok.world.step_dt = 1e-3;
  ok.groups[0].params.bus.speed_min = 0.1;
  EXPECT_NO_THROW(validate_spec(ok));
}

TEST(SpecDiagnostics, BusGroupOnOpenFieldFailsAtBuildWithContext) {
  ScenarioSpec spec = test::bus_spec();
  spec.duration_s = 10.0;
  apply_override(spec, "map.kind", "open_field");
  try {
    run_scenario(spec);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("requires a map with routes"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace dtn::harness
