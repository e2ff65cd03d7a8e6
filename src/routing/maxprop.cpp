#include "routing/maxprop.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/dijkstra.hpp"
#include "sim/world.hpp"

namespace dtn::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

void MaxPropRouter::ensure_size(sim::NodeIdx n) {
  if (static_cast<sim::NodeIdx>(f_own_.size()) < n) {
    // Initial likelihood 1/(n-1) for every other node (MaxProp Sec. 3.2).
    const double init = n > 1 ? 1.0 / static_cast<double>(n - 1) : 0.0;
    f_own_.assign(static_cast<std::size_t>(n), init);
    f_own_[static_cast<std::size_t>(self())] = 0.0;
  }
}

void MaxPropRouter::meet(sim::NodeIdx peer) {
  ensure_size(world().node_count());
  // Incremental averaging: +1 to the met peer, renormalize to sum 1.
  f_own_[static_cast<std::size_t>(peer)] += 1.0;
  double sum = 0.0;
  for (std::size_t j = 0; j < f_own_.size(); ++j) {
    if (static_cast<sim::NodeIdx>(j) != self()) sum += f_own_[j];
  }
  if (sum > 0.0) {
    for (std::size_t j = 0; j < f_own_.size(); ++j) {
      if (static_cast<sim::NodeIdx>(j) != self()) f_own_[j] /= sum;
    }
  }
  cost_dirty_ = true;
}

void MaxPropRouter::exchange_state(sim::NodeIdx peer) {
  auto* peer_router = dynamic_cast<MaxPropRouter*>(&world().router_of(peer));
  if (peer_router == nullptr) return;
  peer_router->ensure_size(world().node_count());
  // Likelihood vectors both ways + ack-set union (control traffic).
  charge_control_bytes(static_cast<std::int64_t>(f_own_.size()) * 8 +
                       static_cast<std::int64_t>(acked_.size() + peer_router->acked_.size()) * 8);
  f_known_[peer] = peer_router->f_own_;
  peer_router->f_known_[self()] = f_own_;
  peer_router->cost_dirty_ = true;
  cost_dirty_ = true;

  // Ack union: both sides learn all delivered ids and purge copies.
  std::vector<sim::MsgId> mine(acked_.begin(), acked_.end());
  for (const sim::MsgId id : peer_router->acked_) {
    if (acked_.insert(id).second) buffer().erase(id);
  }
  for (const sim::MsgId id : mine) {
    if (peer_router->acked_.insert(id).second) {
      world().buffer_of(peer).erase(id);
    }
  }
}

void MaxPropRouter::recompute_costs() {
  const auto n = world().node_count();
  ensure_size(n);
  // Weight graph: w(u -> v) = 1 - f_u(v); rows for nodes we have no vector
  // from stay disconnected (except our own row).
  core::MiMatrix graph(n);
  auto fill_row = [&](sim::NodeIdx u, const std::vector<double>& f) {
    for (sim::NodeIdx v = 0; v < n && static_cast<std::size_t>(v) < f.size(); ++v) {
      graph.set_entry(u, v, 1.0 - f[static_cast<std::size_t>(v)], 0.0);
    }
  };
  fill_row(self(), f_own_);
  for (const auto& [node, f] : f_known_) fill_row(node, f);
  core::DijkstraWorkspace search;
  search.start(graph, self(), graph.row_data(self()));
  cost_ = search.settle_all();
  cost_dirty_ = false;
}

double MaxPropRouter::cost_to(sim::NodeIdx dst) const {
  if (cost_dirty_ || cost_.empty()) {
    auto* self_mut = const_cast<MaxPropRouter*>(this);
    self_mut->recompute_costs();
  }
  if (static_cast<std::size_t>(dst) >= cost_.size()) return kInf;
  return cost_[static_cast<std::size_t>(dst)];
}

void MaxPropRouter::on_contact_up(sim::NodeIdx peer) {
  meet(peer);
  exchange_state(peer);
  push_messages(peer);
}

void MaxPropRouter::push_messages(sim::NodeIdx peer) {
  const double t = now();
  struct Item {
    sim::MsgId id;
    int hops;
    double cost;
  };
  std::vector<Item> destined;
  std::vector<Item> low_hop;
  std::vector<Item> by_cost;
  for (const auto& sm : buffer()) {
    if (sm.msg.expired_at(t) || acked(sm.msg.id)) continue;
    if (sm.msg.dst == peer) {
      destined.push_back({sm.msg.id, sm.hop_count, 0.0});
      continue;
    }
    if (peer_has(peer, sm.msg.id)) continue;
    const double c = cost_to(sm.msg.dst);
    if (sm.hop_count < params_.hop_threshold) {
      low_hop.push_back({sm.msg.id, sm.hop_count, c});
    } else {
      by_cost.push_back({sm.msg.id, sm.hop_count, c});
    }
  }
  std::sort(low_hop.begin(), low_hop.end(), [](const Item& a, const Item& b) {
    if (a.hops != b.hops) return a.hops < b.hops;
    return a.cost < b.cost;
  });
  std::sort(by_cost.begin(), by_cost.end(),
            [](const Item& a, const Item& b) { return a.cost < b.cost; });
  for (const Item& it : destined) send_copy(peer, it.id, 1, 0);
  for (const Item& it : low_hop) send_copy(peer, it.id, 1, 0);
  for (const Item& it : by_cost) send_copy(peer, it.id, 1, 0);
}

void MaxPropRouter::on_message_created(const sim::Message& m) {
  const sim::StoredMessage* sm = buffer().find(m.id);
  if (sm == nullptr) return;
  const std::vector<sim::NodeIdx>& peers = contacts();  // zero-copy view
  for (const sim::NodeIdx peer : peers) {
    if (m.dst == peer || !peer_has(peer, m.id)) send_copy(peer, m.id, 1, 0);
  }
}

void MaxPropRouter::on_message_received(const sim::StoredMessage& sm,
                                        sim::NodeIdx from) {
  if (acked(sm.msg.id)) {
    buffer().erase(sm.msg.id);
    return;
  }
  const std::vector<sim::NodeIdx>& peers = contacts();  // zero-copy view
  for (const sim::NodeIdx peer : peers) {
    if (peer == from) continue;
    if (sm.msg.dst == peer || !peer_has(peer, sm.msg.id)) {
      send_copy(peer, sm.msg.id, 1, 0);
    }
  }
}

void MaxPropRouter::on_delivered(const sim::Message& m) {
  acked_.insert(m.id);
  buffer().erase(m.id);
}

sim::MsgId MaxPropRouter::choose_drop_victim(const sim::Buffer& buffer) const {
  // Evict above-threshold messages by highest cost first; if none, fall
  // back to the highest hop count (closest to MaxProp's sorted drop order).
  sim::MsgId victim = sim::Buffer::kInvalidMsg;
  double worst_cost = -1.0;
  int worst_hops = -1;
  for (const auto& sm : buffer) {
    if (sm.hop_count >= params_.hop_threshold) {
      const double c = cost_to(sm.msg.dst);
      const double effective = c == kInf ? 1e18 : c;
      if (effective > worst_cost) {
        worst_cost = effective;
        victim = sm.msg.id;
      }
    }
  }
  if (victim != sim::Buffer::kInvalidMsg) return victim;
  for (const auto& sm : buffer) {
    if (sm.hop_count > worst_hops) {
      worst_hops = sm.hop_count;
      victim = sm.msg.id;
    }
  }
  return victim;
}

}  // namespace dtn::routing
