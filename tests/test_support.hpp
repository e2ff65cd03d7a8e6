// Shared helpers for simulator and routing tests: a recording router that
// exposes the protected Router API, world builders with scripted
// (trace-driven) movement so contact timing is exact and deterministic,
// and the two single-group scenario specs the harness tests start from.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geo/trace.hpp"
#include "harness/spec.hpp"
#include "mobility/movement_model.hpp"
#include "mobility/trace_playback.hpp"
#include "sim/router.hpp"
#include "sim/world.hpp"

namespace dtn::test {

/// Router that records every callback and exposes send_copy for tests.
class RecordingRouter : public sim::Router {
 public:
  explicit RecordingRouter(int initial_replicas = 1)
      : initial_replicas_(initial_replicas) {}

  [[nodiscard]] std::string name() const override { return "Recording"; }
  [[nodiscard]] int initial_replicas() const override { return initial_replicas_; }

  void on_contact_up(sim::NodeIdx peer) override { contacts_up.push_back(peer); }
  void on_contact_down(sim::NodeIdx peer) override { contacts_down.push_back(peer); }
  void on_message_created(const sim::Message& m) override { created.push_back(m.id); }
  void on_message_received(const sim::StoredMessage& sm, sim::NodeIdx from) override {
    received.push_back({sm.msg.id, from});
  }
  void on_transfer_success(const sim::Message& m, sim::NodeIdx to, int replicas_sent,
                           bool delivered) override {
    successes.push_back({m.id, to, replicas_sent, delivered});
  }
  void on_delivered(const sim::Message& m) override { delivered_ids.push_back(m.id); }

  // Expose the protected API for driving tests.
  using sim::Router::buffer;
  using sim::Router::contacts;
  using sim::Router::peer_has;
  using sim::Router::send_copy;

  struct Received {
    sim::MsgId id;
    sim::NodeIdx from;
  };
  struct Success {
    sim::MsgId id;
    sim::NodeIdx to;
    int replicas;
    bool delivered;
  };

  std::vector<sim::NodeIdx> contacts_up;
  std::vector<sim::NodeIdx> contacts_down;
  std::vector<sim::MsgId> created;
  std::vector<Received> received;
  std::vector<Success> successes;
  std::vector<sim::MsgId> delivered_ids;

 private:
  int initial_replicas_;
};

/// Movement that keeps a node at `pos` forever (alias for readability).
inline mobility::MovementModelPtr pinned(geo::Vec2 pos) {
  return std::make_unique<mobility::Stationary>(pos);
}

/// Movement scripted by (time, position) keyframes with linear motion.
inline mobility::MovementModelPtr scripted(
    std::vector<std::pair<double, geo::Vec2>> keyframes) {
  std::vector<geo::TraceSample> samples;
  samples.reserve(keyframes.size());
  for (const auto& [t, p] : keyframes) {
    samples.push_back(geo::TraceSample{t, 0, p});
  }
  return std::make_unique<mobility::TracePlayback>(std::move(samples));
}

/// Default test world: 10 m range, 2 Mbps, 1 MB buffers, dt 0.1 s.
inline sim::WorldConfig test_world_config(std::uint64_t seed = 1) {
  sim::WorldConfig c;
  c.seed = seed;
  return c;
}

/// A message of `kb` kilobytes from src to dst created at t=`created`.
inline sim::Message make_message(sim::MsgId id, sim::NodeIdx src, sim::NodeIdx dst,
                                 double created = 0.0, double ttl = 1200.0,
                                 std::int64_t kb = 25) {
  sim::Message m;
  m.id = id;
  m.src = src;
  m.dst = dst;
  m.created = created;
  m.ttl = ttl;
  m.size_bytes = kb * 1024;
  return m;
}

/// The paper's bus world (Sec. V-A): a downtown map and one group `buses`
/// of `nodes` bus nodes; every other field at its default.
inline harness::ScenarioSpec bus_spec(int nodes = 120) {
  harness::ScenarioSpec spec;
  spec.name = "bus";
  harness::GroupSpec group;
  group.name = "buses";
  group.model = "bus";
  group.count = nodes;
  spec.groups.push_back(std::move(group));
  return spec;
}

/// The community random-waypoint world: a square open field of side
/// `world_size_m`, tiled into `communities` bands, and one group `walkers`
/// of `nodes` community nodes; 8000 s, every other field at its default.
inline harness::ScenarioSpec community_spec(int nodes = 80, int communities = 4,
                                            double world_size_m = 2400.0) {
  harness::ScenarioSpec spec;
  spec.name = "community";
  spec.duration_s = 8000.0;
  spec.map.kind = "open_field";
  spec.map.params.width = world_size_m;
  spec.map.params.height = world_size_m;
  harness::GroupSpec group;
  group.name = "walkers";
  group.model = "community";
  group.count = nodes;
  spec.groups.push_back(std::move(group));
  spec.communities.count = communities;
  return spec;
}

}  // namespace dtn::test
