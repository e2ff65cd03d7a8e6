#include "routing/meed.hpp"

#include <vector>

#include "sim/world.hpp"

namespace dtn::routing {

void MeedRouter::ensure_state() const {
  if (!mi_) mi_ = std::make_unique<core::MiMatrix>(world().node_count());
}

double MeedRouter::eed(sim::NodeIdx dst) {
  ensure_state();
  if (mi_->version() != dist_version_) {
    // MEED's delay graph is the MI of average intervals itself: the own row
    // is our averages, foreign rows arrive via the link-state exchange.
    rows_.resize(static_cast<std::size_t>(mi_->size()));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      rows_[i] = mi_->row_data(static_cast<core::NodeIdx>(i));
    }
    core::dijkstra_rows(rows_, self(), dijkstra_);
    dist_version_ = mi_->version();
  }
  return dijkstra_.result.dist.at(static_cast<std::size_t>(dst));
}

void MeedRouter::on_contact_up(sim::NodeIdx peer) {
  ensure_state();
  const double t = now();
  history_.record_contact(peer, t);
  const core::PairHistory* ph = history_.pair(peer);
  if (ph != nullptr && !ph->intervals.empty()) {
    mi_->set_entry(self(), peer, ph->average_interval(), t);
  }
  auto* peer_router = dynamic_cast<MeedRouter*>(&world().router_of(peer));
  if (peer_router != nullptr) {
    peer_router->ensure_state();
    if (self() < peer) {
      charge_control_bytes(2 * static_cast<std::int64_t>(mi_->size()) * 8);
      const int to_self = mi_->merge_from(*peer_router->mi_);
      const int to_peer = peer_router->mi_->merge_from(*mi_);
      charge_control_bytes((to_self + to_peer) * mi_->row_bytes());
    }
  }
  for (const auto& sm : buffer()) route_one(sm, peer, peer_router);
}

void MeedRouter::route_one(const sim::StoredMessage& sm, sim::NodeIdx peer,
                           MeedRouter* peer_router) {
  if (sm.msg.expired_at(now())) return;
  if (sm.msg.dst == peer) {
    send_copy(peer, sm.msg.id, 1, 0);
    return;
  }
  if (peer_router == nullptr || peer_has(peer, sm.msg.id)) return;
  charge_control_bytes(8);
  if (eed(sm.msg.dst) > peer_router->eed(sm.msg.dst)) {
    send_copy(peer, sm.msg.id, 1, 1);  // single copy moves
  }
}

void MeedRouter::on_message_created(const sim::Message& m) {
  ensure_state();
  const sim::StoredMessage* sm = buffer().find(m.id);
  if (sm == nullptr) return;
  const std::vector<sim::NodeIdx>& peers = contacts();  // zero-copy view
  for (const sim::NodeIdx peer : peers) {
    auto* peer_router = dynamic_cast<MeedRouter*>(&world().router_of(peer));
    route_one(*sm, peer, peer_router);
  }
}

}  // namespace dtn::routing
