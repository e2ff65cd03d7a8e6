// Extending the library: writing a custom routing protocol against the
// public Router API, REGISTERING it by name, and racing it against the
// built-ins through the same declarative scenario path everything else
// uses (routing::register_protocol + harness::run_spec_sweep). Once
// registered, the name also works in scenario files and
// `dtnsim --set protocol.name=...` — no harness changes.
//
// The example implements "FreshnessRouter", a deliberately simple strategy:
// replicate a message to an encounter only if that encounter has met the
// destination more recently than we have (a one-utility cousin of
// Spray-and-Focus's focus phase, but replication-based). It shows the three
// things a protocol implementor touches:
//   1. state updates in on_contact_up,
//   2. the forwarding decision via send_copy(...),
//   3. optional custom buffer-eviction policy.
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "sim/world.hpp"
#include "util/table.hpp"

namespace {

using namespace dtn;

class FreshnessRouter final : public sim::Router {
 public:
  [[nodiscard]] std::string name() const override { return "Freshness"; }

  void on_contact_up(sim::NodeIdx peer) override {
    ensure_size();
    last_met_[static_cast<std::size_t>(peer)] = now();
    auto* peer_router = dynamic_cast<FreshnessRouter*>(&world().router_of(peer));
    const double t = now();
    for (const auto& sm : buffer()) {
      if (sm.msg.expired_at(t)) continue;
      if (sm.msg.dst == peer) {  // direct delivery first, as always
        send_copy(peer, sm.msg.id, 1, 0);
        continue;
      }
      if (peer_router == nullptr || peer_has(peer, sm.msg.id)) continue;
      peer_router->ensure_size();
      if (peer_router->last_met(sm.msg.dst) > last_met(sm.msg.dst)) {
        send_copy(peer, sm.msg.id, /*r_recv=*/1, /*r_deduct=*/0);  // replicate
      }
    }
  }

  /// Custom eviction: drop the message whose destination we saw longest ago.
  [[nodiscard]] sim::MsgId choose_drop_victim(const sim::Buffer& buffer) const override {
    sim::MsgId victim = sim::Buffer::kInvalidMsg;
    double stalest = std::numeric_limits<double>::infinity();
    for (const auto& sm : buffer) {
      const double seen = last_met(sm.msg.dst);
      if (seen < stalest) {
        stalest = seen;
        victim = sm.msg.id;
      }
    }
    return victim;
  }

 private:
  void ensure_size() {
    if (last_met_.size() < static_cast<std::size_t>(world().node_count())) {
      last_met_.resize(static_cast<std::size_t>(world().node_count()),
                       -std::numeric_limits<double>::infinity());
    }
  }
  [[nodiscard]] double last_met(sim::NodeIdx d) const {
    if (d < 0 || static_cast<std::size_t>(d) >= last_met_.size()) {
      return -std::numeric_limits<double>::infinity();
    }
    return last_met_[static_cast<std::size_t>(d)];
  }

  std::vector<double> last_met_;
};

}  // namespace

int main() {
  // One registry call makes the custom router a first-class protocol name.
  routing::register_protocol("Freshness", [](const routing::ProtocolConfig&) {
    return std::make_unique<FreshnessRouter>();
  });

  const int nodes = 60;
  const double duration = 3000.0;
  // The paper's bus world (Sec. V-A): a downtown map, one bus group.
  harness::SpecSweepOptions opt;
  opt.base.name = "bus";
  opt.base.duration_s = duration;
  harness::GroupSpec buses;
  buses.name = "buses";
  buses.model = "bus";
  buses.count = nodes;
  opt.base.groups.push_back(std::move(buses));
  opt.axes.push_back({"protocol.name", {"Freshness", "EER", "SprayAndWait", "Epidemic"}});
  opt.seeds = 1;
  opt.seed_base = 9;
  const auto results = harness::run_spec_sweep(opt);

  util::TablePrinter table({"router", "delivery_ratio", "latency_s", "goodput"});
  for (const auto& point : results) {
    const std::string& name = point.result.protocol;
    table.new_row()
        .add_cell(name == "Freshness" ? name + " (custom)" : name)
        .add_cell(point.result.delivery_ratio.mean(), 4)
        .add_cell(point.result.latency.mean(), 1)
        .add_cell(point.result.goodput.mean(), 4);
  }
  std::printf("Custom protocol vs built-ins (%d buses, %.0f s):\n\n%s", nodes,
              duration, table.to_string().c_str());
  return 0;
}
