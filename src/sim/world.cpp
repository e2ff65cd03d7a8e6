#include "sim/world.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/event_kernel.hpp"
#include "util/log.hpp"

namespace dtn::sim {

namespace {

// Skin-list contact detection (the Verlet neighbour list of molecular
// dynamics: Verlet, Phys. Rev. 159, 1967). The candidate list holds every
// pair within r + s of each other at a snapshot of positions. While no
// node has moved more than s/2 from its snapshot position, a pair within
// r now was within r + s then, so filtering the list is exact. The test
// needs no speed bound, so it covers every movement lane, custom models
// and teleports alike.
//
// The skin s = 2r. A wider skin rebuilds less often but tests more
// candidates per step. Measured with perfbench bus_epidemic on a 4-core
// shared Xeon, where the per-step grid sweep ran at 3.77k / 3.50k sim-s/s
// in the same window: s = 1r 6.36k, 1.5r 6.57k, 2r 7.16k, 2.5r 7.16k and
// 3r 7.25k sim-s/s. Dense random waypoint was flat across the range.
constexpr double kSkinPerRange = 2.0;
// Rebuild a little before a node reaches s/2, so that rounding in the
// displacement, range and grid tests can never drop a pair at exactly r.
constexpr double kHalfSkinSlack = 1e-6;

double list_range(double radio_range) { return radio_range * (1.0 + kSkinPerRange); }

}  // namespace

World::World(WorldConfig config)
    : config_(config), grid_(list_range(config.radio_range)) {}

World::~World() = default;

NodeIdx World::add_node(mobility::MovementModelPtr movement,
                        std::unique_ptr<Router> router) {
  return add_node_common(engine_.add(std::move(movement)), std::move(router));
}

NodeIdx World::add_node(const mobility::RandomWaypointParams& movement,
                        std::unique_ptr<Router> router) {
  return add_node_common(engine_.add_waypoint(movement), std::move(router));
}

NodeIdx World::add_node(const mobility::CommunityMovementParams& movement,
                        std::unique_ptr<Router> router) {
  return add_node_common(engine_.add_community(movement), std::move(router));
}

NodeIdx World::add_node(std::shared_ptr<const geo::Polyline> route,
                        const mobility::BusParams& movement,
                        std::unique_ptr<Router> router) {
  return add_node_common(engine_.add_bus(std::move(route), movement), std::move(router));
}

NodeIdx World::add_node(const mobility::StationaryNodeSpec& movement,
                        std::unique_ptr<Router> router) {
  return add_node_common(engine_.add_stationary(movement), std::move(router));
}

NodeIdx World::add_node_common(int engine_node, std::unique_ptr<Router> router) {
  assert(!started_ && "nodes must be added before run()");
  const auto idx = static_cast<NodeIdx>(engine_node);
  auto rng = util::derive_stream(config_.seed, static_cast<std::uint64_t>(idx),
                                 util::StreamPurpose::kRouting);
  if (rebuilding_ && static_cast<std::size_t>(idx) < nodes_.size()) {
    // Recycled slot: swap in the run's router, clear the per-node state in
    // place (buffer slab, adjacency, inbound bag all keep their capacity).
    Node& node = nodes_[static_cast<std::size_t>(idx)];
    node.router = std::move(router);
    node.buffer.reset(config_.buffer_bytes);
    node.routing_rng = rng;
    Adjacency& adj = adjacency_[static_cast<std::size_t>(idx)];
    adj.peers.clear();
    adj.slots.clear();
    inbound_queued_[static_cast<std::size_t>(idx)].clear();
  } else {
    nodes_.emplace_back(std::move(router), config_.buffer_bytes, rng);
    adjacency_.emplace_back();
    inbound_queued_.emplace_back();
  }
  if (rebuilding_) rebuild_cursor_ = static_cast<std::size_t>(idx) + 1;
  Node& node = nodes_[static_cast<std::size_t>(idx)];
  node.router->attach(this, idx);
  engine_.init_node(engine_node,
                    util::derive_stream(config_.seed, static_cast<std::uint64_t>(idx),
                                        util::StreamPurpose::kMovement),
                    0.0);
  return idx;
}

void World::set_traffic(const TrafficParams& params) {
  finalize_rebuild();
  traffic_params_ = params;
  has_traffic_ = true;
  // The generator derives one stream per matrix entry from the seed.
  if (traffic_) {
    traffic_->reset(params, config_.seed, static_cast<NodeIdx>(nodes_.size()));
  } else {
    traffic_ = std::make_unique<TrafficGenerator>(params, config_.seed,
                                                  static_cast<NodeIdx>(nodes_.size()));
  }
}

void World::clear_sim_state() {
  now_ = 0.0;
  step_count_ = 0;
  sweeps_done_ = 0;
  event_kernel_used_ = false;
  started_ = false;
  for (Connection& conn : conn_pool_) {
    conn.queue.clear();
    conn.alive = false;
    conn.a = conn.b = -1;
    conn.active_idx = kNoSlot;
  }
  free_slots_.clear();
  free_slots_.reserve(conn_pool_.size());  // one-time growth on first reuse
  for (std::size_t s = conn_pool_.size(); s-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
  live_connections_ = 0;
  candidates_.clear();
  candidates_valid_ = false;
  candidate_rebuilds_ = 0;
  candidates_tested_ = 0;
  prev_pairs_.clear();
  active_slots_.clear();
  metrics_.reset();
  contact_events_ = 0;
  next_msg_id_ = 0;
}

void World::reset(const WorldConfig& config) {
  const double old_range = config_.radio_range;
  config_ = config;
  if (config_.radio_range != old_range) {
    // Cell size must match the candidate-list range.
    grid_ = geo::SpatialGrid(list_range(config_.radio_range));
  } else {
    // Full cell reset: the rebuilt scenario's map (and thus its occupied
    // region) may differ, and clear()-retained foreign cells would slow
    // every pair sweep until pruning catches up.
    grid_.reset();
  }
  clear_sim_state();
  // Unlike reseed(), the rebuilt scenario's group structure may differ, so
  // the per-group metric buckets cannot survive a reset.
  metrics_.clear_groups();
  engine_.clear();
  has_traffic_ = false;  // re-armed by the next set_traffic(), if any
  rebuilding_ = true;
  rebuild_cursor_ = 0;
}

void World::reseed(std::uint64_t seed) {
  finalize_rebuild();  // self-heal like run()/step(): trim a pending rebuild
  config_.seed = seed;
  // Points-only clear: the scenario structure (and so the roamed region)
  // is unchanged, so the discovered cell set stays warm.
  grid_.clear();
  clear_sim_state();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    node.buffer.reset(config_.buffer_bytes);
    node.routing_rng = util::derive_stream(seed, static_cast<std::uint64_t>(i),
                                           util::StreamPurpose::kRouting);
    node.router->reset();
    Adjacency& adj = adjacency_[i];
    adj.peers.clear();
    adj.slots.clear();
    inbound_queued_[i].clear();
    engine_.init_node(static_cast<int>(i),
                      util::derive_stream(seed, static_cast<std::uint64_t>(i),
                                          util::StreamPurpose::kMovement),
                      0.0);
  }
  if (has_traffic_) {
    traffic_->reset(traffic_params_, seed, static_cast<NodeIdx>(nodes_.size()));
  }
}

void World::finalize_rebuild() {
  if (!rebuilding_) return;
  rebuilding_ = false;
  if (rebuild_cursor_ < nodes_.size()) {
    // The rebuilt scenario has fewer nodes: drop the surplus slots (their
    // capacity is the one thing a shrinking rebuild cannot keep).
    nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(rebuild_cursor_),
                 nodes_.end());
    adjacency_.resize(rebuild_cursor_);
    inbound_queued_.resize(rebuild_cursor_);
  }
}

std::uint64_t World::pair_key(NodeIdx a, NodeIdx b) noexcept {
  const auto lo = static_cast<std::uint64_t>(std::min(a, b));
  const auto hi = static_cast<std::uint64_t>(std::max(a, b));
  return (lo << 32) | hi;
}

Buffer& World::buffer_of(NodeIdx node) {
  return nodes_.at(static_cast<std::size_t>(node)).buffer;
}

const Buffer& World::buffer_of(NodeIdx node) const {
  return nodes_.at(static_cast<std::size_t>(node)).buffer;
}

Router& World::router_of(NodeIdx node) {
  return *nodes_.at(static_cast<std::size_t>(node)).router;
}

const Router& World::router_of(NodeIdx node) const {
  return *nodes_.at(static_cast<std::size_t>(node)).router;
}

geo::Vec2 World::position_of(NodeIdx node) const {
  return engine_.positions().at(static_cast<std::size_t>(node));
}

util::Pcg32& World::routing_rng(NodeIdx node) {
  return nodes_.at(static_cast<std::size_t>(node)).routing_rng;
}

std::uint32_t World::slot_of(NodeIdx a, NodeIdx b) const noexcept {
  if (a < 0 || static_cast<std::size_t>(a) >= adjacency_.size()) return kNoSlot;
  const Adjacency& adj = adjacency_[static_cast<std::size_t>(a)];
  const auto it = std::lower_bound(adj.peers.begin(), adj.peers.end(), b);
  if (it == adj.peers.end() || *it != b) return kNoSlot;
  return adj.slots[static_cast<std::size_t>(it - adj.peers.begin())];
}

bool World::in_contact(NodeIdx a, NodeIdx b) const {
  return slot_of(a, b) != kNoSlot;
}

const std::vector<NodeIdx>& World::neighbors_of(NodeIdx node) const {
  return adjacency_.at(static_cast<std::size_t>(node)).peers;
}

std::vector<NodeIdx> World::contacts_of(NodeIdx node) const {
  return neighbors_of(node);
}

bool World::peer_has(NodeIdx peer, MsgId id) const {
  if (buffer_of(peer).contains(id)) return true;
  // Also true when a transfer carrying the message toward `peer` is queued;
  // prevents two contacts from double-sending the same copy.
  return inbound_queued_.at(static_cast<std::size_t>(peer)).contains(id);
}

bool World::enqueue_transfer(NodeIdx from, NodeIdx to, MsgId id, int r_recv,
                             int r_deduct) {
  if (from == to || r_recv <= 0 || r_deduct < 0) return false;
  const std::uint32_t slot = slot_of(from, to);
  if (slot == kNoSlot) return false;  // not in contact
  const StoredMessage* sm = buffer_of(from).find(id);
  if (sm == nullptr || sm->msg.expired_at(now_)) return false;
  if (r_deduct > sm->replicas) return false;
  Connection& conn = conn_pool_[slot];
  // Refuse duplicates already queued on this connection toward `to`.
  for (const Transfer& tr : conn.queue) {
    if (tr.msg.id == id && tr.to == to) return false;
  }
  Transfer tr;
  tr.from = from;
  tr.to = to;
  tr.msg = sm->msg;
  tr.r_recv = r_recv;
  tr.r_deduct = r_deduct;
  tr.bytes_left = static_cast<double>(sm->msg.size_bytes);
  conn.queue.push_back(tr);
  activate(slot);
  inbound_queued_[static_cast<std::size_t>(to)].insert(id);
  return true;
}

void World::activate(std::uint32_t slot) {
  Connection& conn = conn_pool_[slot];
  if (conn.active_idx == kNoSlot) {
    conn.active_idx = static_cast<std::uint32_t>(active_slots_.size());
    active_slots_.push_back(slot);
  }
}

void World::deactivate(std::uint32_t slot) {
  Connection& conn = conn_pool_[slot];
  if (conn.active_idx == kNoSlot) return;
  const std::uint32_t last = active_slots_.back();
  active_slots_[conn.active_idx] = last;
  conn_pool_[last].active_idx = conn.active_idx;
  active_slots_.pop_back();
  conn.active_idx = kNoSlot;
}

void World::unindex_inbound(const Transfer& tr) {
  inbound_queued_[static_cast<std::size_t>(tr.to)].erase_one(tr.msg.id);
}

void World::inject_message(const Message& m) {
  finalize_rebuild();
  assert(m.src >= 0 && m.src < node_count());
  assert(m.dst >= 0 && m.dst < node_count());
  metrics_.on_created(m);
  Node& src = nodes_[static_cast<std::size_t>(m.src)];
  if (!src.buffer.admissible(m)) {
    metrics_.on_dropped();
    return;
  }
  if (!make_room(m.src, m)) {
    metrics_.on_dropped();
    return;
  }
  StoredMessage sm;
  sm.msg = m;
  sm.replicas = std::max(1, src.router->initial_replicas());
  sm.hop_count = 0;
  sm.received_at = now_;
  src.buffer.insert(sm);
  src.router->on_message_created(m);
}

bool World::make_room(NodeIdx node, const Message& msg) {
  Buffer& buf = buffer_of(node);
  if (!buf.admissible(msg)) return false;
  while (!buf.fits(msg)) {
    if (buf.empty()) return false;
    const MsgId victim = router_of(node).choose_drop_victim(buf);
    if (victim == Buffer::kInvalidMsg || !buf.erase(victim)) {
      // Defensive: a router returning a bogus victim must not loop forever.
      if (!buf.erase(buf.oldest())) return false;
    }
    metrics_.on_dropped();
  }
  return true;
}

std::int64_t World::step_count_for(double duration, double step_dt) {
  if (!(step_dt > 0.0) || !(duration > 0.0)) return 0;
  const double ratio = duration / step_dt;
  const double nearest = std::nearbyint(ratio);
  // A ratio within a few ulps of an integer IS that integer: 600 / 0.1
  // must never become 6000.0000000001 -> 6001 steps. Anything genuinely
  // fractional rounds up so run(duration) always covers the duration.
  const double tol = 1e-9 * std::max(1.0, std::abs(ratio));
  if (nearest > 0.0 && std::abs(ratio - nearest) <= tol) {
    return static_cast<std::int64_t>(nearest);
  }
  return static_cast<std::int64_t>(std::ceil(ratio));
}

void World::run(double duration) {
  finalize_rebuild();
  started_ = true;
  const std::int64_t steps = step_count_for(duration, config_.step_dt);
  if (steps <= 0) return;
  // Kinetic advance needs every trajectory in closed form.
  if (config_.event_kernel && engine_.kinetic_capable()) {
    event_kernel_used_ = true;
    EventKernel(*this).run(step_count_, step_count_ + steps);
    candidates_valid_ = false;  // nodes moved without the list
    return;
  }
  for (std::int64_t i = 0; i < steps; ++i) step();
}

void World::step() {
  finalize_rebuild();
  started_ = true;
  ++step_count_;
  // Time grid contract: step k happens at exactly k * step_dt.
  now_ = static_cast<double>(step_count_) * config_.step_dt;
  move_nodes();
  detect_contacts();
  generate_traffic();
  progress_transfers();
  if (now_ >= static_cast<double>(sweeps_done_ + 1) * config_.ttl_sweep_interval) {
    sweep_expired();
    ++sweeps_done_;
    for (auto& node : nodes_) node.router->on_tick(now_);
  }
}

void World::move_nodes() {
  const double dt = config_.step_dt;
  engine_.step_all(static_cast<double>(step_count_ - 1) * dt, dt);
}

void World::link_up(NodeIdx a, NodeIdx b) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(conn_pool_.size());
    conn_pool_.emplace_back();
  }
  Connection& conn = conn_pool_[slot];
  conn.a = std::min(a, b);
  conn.b = std::max(a, b);
  conn.alive = true;
  assert(conn.active_idx == kNoSlot && conn.queue.empty());
  for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
    Adjacency& adj = adjacency_[static_cast<std::size_t>(self)];
    const auto it = std::lower_bound(adj.peers.begin(), adj.peers.end(), peer);
    const auto at = it - adj.peers.begin();
    adj.peers.insert(it, peer);
    adj.slots.insert(adj.slots.begin() + at, slot);
  }
  ++live_connections_;
  ++contact_events_;
  nodes_[static_cast<std::size_t>(a)].router->on_contact_up(b);
  nodes_[static_cast<std::size_t>(b)].router->on_contact_up(a);
}

void World::link_down(NodeIdx a, NodeIdx b) {
  const std::uint32_t slot = slot_of(a, b);
  assert(slot != kNoSlot);
  Connection& conn = conn_pool_[slot];
  abort_connection_queue(conn);
  deactivate(slot);
  for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
    Adjacency& adj = adjacency_[static_cast<std::size_t>(self)];
    const auto it = std::lower_bound(adj.peers.begin(), adj.peers.end(), peer);
    const auto at = it - adj.peers.begin();
    adj.peers.erase(it);
    adj.slots.erase(adj.slots.begin() + at);
  }
  conn.alive = false;
  conn.a = conn.b = -1;
  free_slots_.push_back(slot);
  --live_connections_;
  nodes_[static_cast<std::size_t>(std::min(a, b))].router->on_contact_down(std::max(a, b));
  nodes_[static_cast<std::size_t>(std::max(a, b))].router->on_contact_down(std::min(a, b));
}

void World::sort_pair_keys(std::vector<std::uint64_t>& keys) {
  // Two-pass counting sort: each half of a pair key is a node id smaller
  // than node_count, so it fits a single digit. O(pairs + nodes) per step
  // and allocation-free after warm-up, unlike a comparison sort.
  std::size_t buckets = 1;
  while (buckets < nodes_.size()) buckets <<= 1;
  const std::uint64_t mask = buckets - 1;
  radix_tmp_.resize(keys.size());
  for (const int shift : {0, 32}) {  // LSD: hi half first, then lo half
    radix_count_.assign(buckets + 1, 0);
    for (const std::uint64_t k : keys) ++radix_count_[((k >> shift) & mask) + 1];
    for (std::size_t b = 1; b <= buckets; ++b) radix_count_[b] += radix_count_[b - 1];
    for (const std::uint64_t k : keys) radix_tmp_[radix_count_[(k >> shift) & mask]++] = k;
    std::swap(keys, radix_tmp_);
  }
}

bool World::candidates_stale(const std::vector<geo::Vec2>& pos) const {
  const double half_skin =
      0.5 * kSkinPerRange * config_.radio_range * (1.0 - kHalfSkinSlack);
  const double limit2 = half_skin * half_skin;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (pos[i].distance2_to(snapshot_[i]) > limit2) return true;
  }
  return false;
}

void World::rebuild_candidates(const std::vector<geo::Vec2>& pos) {
  // Incremental grid maintenance: only boundary crossings touch cells.
  grid_.advance_epoch();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    grid_.update(static_cast<NodeIdx>(i), pos[i]);
  }
  grid_.all_pairs_into(list_range(config_.radio_range), pair_scratch_);
  candidates_.clear();
  for (const auto& [a, b] : pair_scratch_) candidates_.push_back(pair_key(a, b));
  // Key order == ascending (a, b); filtering keeps it, so each step's
  // pairs come out in the deterministic link-event callback order.
  sort_pair_keys(candidates_);
  snapshot_.assign(pos.begin(), pos.end());
  candidates_valid_ = true;
  ++candidate_rebuilds_;
}

void World::detect_contacts() {
  const std::vector<geo::Vec2>& pos = engine_.positions();
  if (!candidates_valid_ || candidates_stale(pos)) rebuild_candidates(pos);
  const double r2 = config_.radio_range * config_.radio_range;
  curr_pairs_.clear();
  for (const std::uint64_t key : candidates_) {
    const geo::Vec2 pa = pos[static_cast<std::size_t>(key >> 32)];
    if (pa.distance2_to(pos[static_cast<std::size_t>(key & 0xffffffffu)]) <= r2) {
      curr_pairs_.push_back(key);
    }
  }
  candidates_tested_ += static_cast<std::int64_t>(candidates_.size());

  // Link-down: in range last step, out of range now.
  diff_scratch_.clear();
  std::set_difference(prev_pairs_.begin(), prev_pairs_.end(), curr_pairs_.begin(),
                      curr_pairs_.end(), std::back_inserter(diff_scratch_));
  for (const std::uint64_t key : diff_scratch_) {
    link_down(static_cast<NodeIdx>(key >> 32), static_cast<NodeIdx>(key & 0xffffffffu));
  }

  // Link-up: in range now, not last step.
  diff_scratch_.clear();
  std::set_difference(curr_pairs_.begin(), curr_pairs_.end(), prev_pairs_.begin(),
                      prev_pairs_.end(), std::back_inserter(diff_scratch_));
  for (const std::uint64_t key : diff_scratch_) {
    link_up(static_cast<NodeIdx>(key >> 32), static_cast<NodeIdx>(key & 0xffffffffu));
  }

  std::swap(prev_pairs_, curr_pairs_);
}

void World::abort_connection_queue(Connection& conn) {
  for (const Transfer& tr : conn.queue) {
    if (tr.started) metrics_.on_transfer_aborted();
    unindex_inbound(tr);
  }
  conn.queue.clear();
}

void World::progress_transfers() {
  const double bytes_per_step = config_.bitrate_bps / 8.0 * config_.step_dt;
  progress_scratch_.clear();
  // Snapshot the connections that have queued work when the phase starts
  // (ascending pair key): transfers enqueued by completion callbacks during
  // the phase first receive bandwidth next step. The active-transfers index
  // lists only connections with queued work; compact out the ones that
  // drained since the last step.
  for (const std::uint32_t slot : active_slots_) {
    Connection& conn = conn_pool_[slot];
    if (conn.queue.empty()) {
      conn.active_idx = kNoSlot;
      continue;
    }
    progress_scratch_.emplace_back(pair_key(conn.a, conn.b), slot);
  }
  active_slots_.clear();
  for (const auto& [key, slot] : progress_scratch_) {
    conn_pool_[slot].active_idx = static_cast<std::uint32_t>(active_slots_.size());
    active_slots_.push_back(slot);
  }
  std::sort(progress_scratch_.begin(), progress_scratch_.end());

  for (const auto& [key, slot] : progress_scratch_) {
    Connection& conn = conn_pool_[slot];
    double budget = bytes_per_step;  // half-duplex: shared per connection
    while (budget > 0.0 && !conn.queue.empty()) {
      Transfer& tr = conn.queue.front();
      if (!tr.started) {
        tr.started = true;
        metrics_.on_transfer_started();
      }
      const double sent = std::min(budget, tr.bytes_left);
      tr.bytes_left -= sent;
      budget -= sent;
      if (tr.bytes_left <= 1e-9) {
        Transfer done = tr;
        conn.queue.pop_front();
        unindex_inbound(done);
        complete_transfer(done);
      }
    }
  }
}

void World::complete_transfer(Transfer& tr) {
  metrics_.on_relayed();
  Node& sender = nodes_[static_cast<std::size_t>(tr.from)];
  Node& receiver = nodes_[static_cast<std::size_t>(tr.to)];

  // Sender side: deduct the handed-over replicas. The copy may have been
  // evicted or expired mid-transfer; the bytes were spent regardless.
  StoredMessage* src_copy = sender.buffer.find(tr.msg.id);
  int sender_hops = src_copy != nullptr ? src_copy->hop_count : 0;
  if (src_copy != nullptr && tr.r_deduct > 0) {
    src_copy->replicas -= tr.r_deduct;
    if (src_copy->replicas <= 0) sender.buffer.erase(tr.msg.id);
  }

  const bool is_destination = tr.to == tr.msg.dst;
  const bool within_ttl = !tr.msg.expired_at(now_);

  if (is_destination) {
    if (within_ttl) {
      metrics_.on_delivered(tr.msg, now_, sender_hops + 1);
    }
    // The destination never re-stores or re-forwards; the sender drops its
    // copy entirely (it has proof of delivery).
    sender.buffer.erase(tr.msg.id);  // no-op when the copy is already gone
    sender.router->on_transfer_success(tr.msg, tr.to, tr.r_recv, within_ttl);
    if (within_ttl) {
      sender.router->on_delivered(tr.msg);
      receiver.router->on_delivered(tr.msg);
    }
    return;
  }

  if (tr.msg.expired_at(now_)) {
    // Arrived at a relay after expiry: receiver discards immediately.
    metrics_.on_expired();
    sender.router->on_transfer_success(tr.msg, tr.to, tr.r_recv, false);
    return;
  }

  if (StoredMessage* existing = receiver.buffer.find(tr.msg.id)) {
    // Concurrent copies merged: quota is conserved.
    existing->replicas += tr.r_recv;
    sender.router->on_transfer_success(tr.msg, tr.to, tr.r_recv, false);
    return;
  }

  if (!make_room(tr.to, tr.msg)) {
    metrics_.on_dropped();
    sender.router->on_transfer_success(tr.msg, tr.to, tr.r_recv, false);
    return;
  }
  StoredMessage sm;
  sm.msg = tr.msg;
  sm.replicas = tr.r_recv;
  sm.hop_count = sender_hops + 1;
  sm.received_at = now_;
  receiver.buffer.insert(sm);
  sender.router->on_transfer_success(tr.msg, tr.to, tr.r_recv, false);
  receiver.router->on_message_received(*receiver.buffer.find(tr.msg.id), tr.from);
}

void World::generate_traffic() {
  if (!has_traffic_) return;
  while (traffic_->next_time() <= now_) {
    const Message m = traffic_->pop(next_msg_id_++);
    inject_message(m);
  }
}

void World::sweep_expired() {
  for (auto& node : nodes_) {
    node.buffer.expired_into(now_, expired_scratch_);
    for (const MsgId id : expired_scratch_) {
      node.buffer.erase(id);
      metrics_.on_expired();
    }
  }
}

}  // namespace dtn::sim
