#include "routing/eer.hpp"

#include <cmath>
#include <vector>

#include "core/estimators.hpp"
#include "sim/world.hpp"

namespace dtn::routing {

EerRouter::EerRouter(EerParams params)
    : params_(params), history_(params.window), memd_cache_(params.md_time_quantum) {}

void EerRouter::ensure_state() const {
  if (!mi_) mi_ = std::make_unique<core::MiMatrix>(world().node_count());
}

double EerRouter::eev(double t, double tau) const {
  return core::expected_encounter_value(history_, t, tau);
}

double EerRouter::memd(sim::NodeIdx dst, double t) {
  ensure_state();
  return memd_cache_.memd(*mi_, history_, self(), dst, t);
}

void EerRouter::record_meeting(sim::NodeIdx peer, double t) {
  history_.record_contact(peer, t);
  const core::PairHistory* ph = history_.pair(peer);
  if (ph != nullptr && !ph->intervals.empty()) {
    mi_->set_entry(self(), peer, ph->average_interval(), t);
  }
}

void EerRouter::exchange_mi(sim::NodeIdx /*peer*/, EerRouter& peer_router) {
  // Handshake: both sides ship their per-row update-time vectors so each
  // can decide which rows are fresher (8 bytes per row, both directions).
  charge_control_bytes(2 * static_cast<std::int64_t>(mi_->size()) * 8);
  // Only fresher rows cross the air (paper footnote 1); charge both
  // directions once (the lower-id endpoint performs the exchange).
  const int to_self = mi_->merge_from(*peer_router.mi_);
  const int to_peer = peer_router.mi_->merge_from(*mi_);
  charge_control_bytes((to_self + to_peer) * mi_->row_bytes());
}

void EerRouter::on_contact_up(sim::NodeIdx peer) {
  ensure_state();
  const double t = now();
  record_meeting(peer, t);

  auto* peer_router = dynamic_cast<EerRouter*>(&world().router_of(peer));
  if (peer_router != nullptr) {
    peer_router->ensure_state();
    // Both endpoints receive on_contact_up; the lower id runs the MI
    // exchange exactly once per contact (Algorithm 1 line 4).
    if (self() < peer) exchange_mi(peer, *peer_router);
    // Summary-vector exchange so each side knows what the other holds.
    charge_control_bytes(
        static_cast<std::int64_t>(buffer().count() + world().buffer_of(peer).count()) * 8);
  }

  route_messages(peer, peer_router);
}

void EerRouter::route_messages(sim::NodeIdx peer, EerRouter* peer_router) {
  const double t = now();
  for (const auto& sm : buffer()) {
    route_one(sm, peer, peer_router, t);
  }
}

void EerRouter::route_one(const sim::StoredMessage& sm, sim::NodeIdx peer,
                          EerRouter* peer_router, double t) {
  {
    if (sm.msg.expired_at(t)) return;
    // Direct delivery always wins.
    if (sm.msg.dst == peer) {
      send_copy(peer, sm.msg.id, 1, 0);
      return;
    }
    if (peer_router == nullptr) return;
    // Algorithm 1 line 7: no redistribution when both hold replicas.
    if (peer_has(peer, sm.msg.id)) return;

    const double tau = params_.alpha * sm.msg.remaining_ttl(t);
    if (sm.replicas > 1) {
      // Multiple replicas distribution (Algorithm 1 line 10).
      const double eev_i = eev(t, tau);
      const double eev_j = peer_router->eev(t, tau);
      const double denom = eev_i + eev_j;
      int give;
      if (denom <= 0.0) {
        give = sm.replicas / 2;  // degenerate split, see header
      } else {
        give = static_cast<int>(
            std::ceil(static_cast<double>(sm.replicas) * eev_j / denom));
        if (give > sm.replicas) give = sm.replicas;
      }
      if (give >= 1) send_copy(peer, sm.msg.id, give, give);
    } else {
      // Single replica forwarding (Algorithm 1 line 13).
      const double memd_i = memd(sm.msg.dst, t);
      const double memd_j = peer_router->memd(sm.msg.dst, t);
      charge_control_bytes(8);  // the peer reports its MEMD to us
      if (memd_i > memd_j) send_copy(peer, sm.msg.id, 1, 1);
    }
  }
}

void EerRouter::on_message_created(const sim::Message& m) {
  ensure_state();
  const sim::StoredMessage* sm = buffer().find(m.id);
  if (sm == nullptr) return;
  // A message born during an active contact is routed immediately; the
  // contact-up exchange already happened when the link formed.
  const std::vector<sim::NodeIdx>& peers = contacts();  // zero-copy view
  for (const sim::NodeIdx peer : peers) {
    auto* peer_router = dynamic_cast<EerRouter*>(&world().router_of(peer));
    route_one(*sm, peer, peer_router, now());
  }
}

void EerRouter::on_message_received(const sim::StoredMessage& sm,
                                    sim::NodeIdx /*from*/) {
  ensure_state();
  // Keep distributing along other active contacts (peer_has() filters the
  // sender and any node already scheduled to receive it).
  const std::vector<sim::NodeIdx>& peers = contacts();  // zero-copy view
  for (const sim::NodeIdx peer : peers) {
    auto* peer_router = dynamic_cast<EerRouter*>(&world().router_of(peer));
    route_one(sm, peer, peer_router, now());
  }
}

}  // namespace dtn::routing
