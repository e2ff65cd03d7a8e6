// Smoke-level reproduction checks: the qualitative orderings Figure 2
// reports should already be visible at reduced scale. These assert the
// *shape* (who beats whom), not absolute numbers.
#include <gtest/gtest.h>

#include "harness/sweep.hpp"
#include "test_support.hpp"

namespace dtn::harness {
namespace {

const std::vector<PointResult>& comparison_results() {
  static const std::vector<PointResult> results = [] {
    SpecSweepOptions opt;
    opt.base = test::bus_spec();
    opt.base.duration_s = 2500.0;
    opt.base.map.params.downtown.rows = 8;
    opt.base.map.params.downtown.cols = 10;
    opt.base.map.params.downtown.districts = 3;
    opt.base.map.params.downtown.routes_per_district = 2;
    opt.base.protocol.copies = 8;
    opt.axes = {{"protocol.name", {"EER", "CR", "EBR", "MaxProp", "SprayAndWait"}},
                {"scenario.nodes", {"32"}}};
    opt.seeds = 2;
    opt.seed_base = 500;
    std::vector<PointResult> points;
    for (auto& p : run_spec_sweep(opt)) points.push_back(std::move(p.result));
    return points;
  }();
  return results;
}

const PointResult& point(const std::string& protocol) {
  for (const auto& p : comparison_results()) {
    if (p.protocol == protocol) return p;
  }
  throw std::runtime_error("missing protocol " + protocol);
}

TEST(ProtocolComparison, AllProtocolsDeliver) {
  for (const auto& p : comparison_results()) {
    EXPECT_GT(p.delivery_ratio.mean(), 0.0) << p.protocol;
  }
}

TEST(ProtocolComparison, MaxPropDeliveryAtLeastEbr) {
  // Fig. 2(a): MaxProp tops delivery ratio, EBR is lowest.
  EXPECT_GE(point("MaxProp").delivery_ratio.mean() + 0.05,
            point("EBR").delivery_ratio.mean());
}

TEST(ProtocolComparison, MaxPropGoodputWorstAmongLineup) {
  // Fig. 2(c): MaxProp's goodput collapses relative to the quota schemes.
  const double maxprop = point("MaxProp").goodput.mean();
  EXPECT_LT(maxprop, point("EER").goodput.mean());
  EXPECT_LT(maxprop, point("CR").goodput.mean());
  EXPECT_LT(maxprop, point("EBR").goodput.mean());
}

TEST(ProtocolComparison, EbrGoodputBest) {
  // Fig. 2(c): EBR achieves the best goodput (wait-phase conservatism).
  const double ebr = point("EBR").goodput.mean();
  EXPECT_GE(ebr + 1e-9, point("MaxProp").goodput.mean());
  EXPECT_GE(ebr + 0.1, point("EER").goodput.mean());
}

TEST(ProtocolComparison, EerDeliveryBeatsEbr) {
  // The paper's core claim: TTL-aware EEV beats EBR's TTL-blind EV on
  // delivery ratio.
  EXPECT_GT(point("EER").delivery_ratio.mean() + 0.02,
            point("EBR").delivery_ratio.mean());
}

TEST(ProtocolComparison, MaxPropRelaysMost) {
  const double maxprop_relays = point("MaxProp").relayed.mean();
  for (const auto& proto : {"EER", "CR", "EBR", "SprayAndWait"}) {
    EXPECT_GT(maxprop_relays, point(proto).relayed.mean()) << proto;
  }
}

TEST(ProtocolComparison, CrControlOverheadBelowEer) {
  // Sec. IV's motivation: community-scoped MI exchange shrinks overhead.
  EXPECT_LT(point("CR").control_mb.mean(), point("EER").control_mb.mean());
}

TEST(ProtocolComparison, TablesRenderAllCells) {
  const auto table = metric_table(comparison_results(), Metric::kDeliveryRatio);
  const std::string rendered = table.to_string();
  for (const auto& proto : {"EER", "CR", "EBR", "MaxProp", "SprayAndWait"}) {
    EXPECT_NE(rendered.find(proto), std::string::npos) << proto;
  }
}

}  // namespace
}  // namespace dtn::harness
