// The simulation kernel. Time-stepped movement + contact detection (update
// interval 0.1 s per the paper), bandwidth-limited half-duplex transfers per
// contact, finite buffers with router-chosen eviction, TTL expiry, and the
// paper's three metrics. One World is one simulation run; Worlds share no
// state and may run concurrently on different threads.
//
// Contact-layer engine (incremental since PR 1): the World maintains
//  - per-node sorted adjacency lists, updated on link-up/link-down, so
//    neighbor queries are O(degree) and routers get a zero-copy
//    `const std::vector<NodeIdx>&` view;
//  - a slot pool of Connection records addressed through the adjacency
//    lists (no per-link hash map), recycled across link churn;
//  - sorted pair-key vectors diffed against the previous step's to derive
//    link-up/link-down events without rebuilding any set structure;
//  - an active-transfers index so progress_transfers() visits only
//    connections with queued work;
//  - slab-backed per-node message stores (sim/buffer.hpp), a flat
//    inbound-queued index, and a reused TTL-sweep scratch, so the
//    traffic-bearing hot path recycles instead of allocating.
// After warm-up the whole step loop is allocation-free in steady state.
//
// Movement (SoA since PR 3): node trajectories execute inside a
// mobility::MovementEngine — positions and per-model state in dense
// structure-of-arrays lanes, batched RNG draws per waypoint event, and no
// per-node virtual dispatch for the waypoint/community/bus models.
//
// Cross-run reuse (PR 3): one World can execute many simulation runs while
// RETAINING its allocated capacity — buffer slabs, spatial-grid cells,
// adjacency/connection/transfer pools, movement lanes, metrics buckets:
//   - reset(config) + add_node(...) per node + set_traffic/run rebuilds the
//     world for a possibly different scenario (node count, protocol, map);
//     node slots are recycled in order, so only genuinely new state (router
//     objects, larger high-water marks) allocates;
//   - reseed(seed) restarts the CURRENT node set under a new seed with ~0
//     allocations: movement re-initialized in place, routers reset via
//     Router::reset(), buffers/metrics/traffic cleared in place.
// Both paths are bit-identical to building a fresh World with the same
// arguments (enforced by integration_sweep_test + sim_alloc_regression_test).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/spatial_grid.hpp"
#include "mobility/movement_engine.hpp"
#include "mobility/movement_model.hpp"
#include "sim/buffer.hpp"
#include "sim/flat_id_table.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/router.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace dtn::sim {

struct WorldConfig {
  double step_dt = 0.1;          ///< update interval (s), paper Sec. V-A
  double radio_range = 10.0;     ///< m
  double bitrate_bps = 2e6;      ///< 2 Mbps
  std::int64_t buffer_bytes = 1 << 20;  ///< 1 MB
  double ttl_sweep_interval = 10.0;     ///< s between expiry sweeps
  std::uint64_t seed = 1;
  /// Kinetic (event-driven) time advance: run() consumes a calendar of
  /// analytically predicted contact/waypoint/cell-crossing events instead
  /// of scanning every fixed step (sim/event_kernel.hpp). Observable
  /// actions stay quantized to the step_dt grid, so metrics are
  /// bit-identical to the fixed-dt loop on closed-form workloads
  /// (sim_event_kernel_test). Falls back to fixed-dt stepping when a node
  /// has no closed-form trajectory (bus/custom movement). Set before run().
  bool event_kernel = false;
};

class World {
 public:
  explicit World(WorldConfig config);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Adds a node; returns its index. All nodes must be added before run().
  /// Known model types (RandomWaypoint / CommunityMovement / BusMovement)
  /// are unpacked into the SoA movement lanes; others step virtually.
  NodeIdx add_node(mobility::MovementModelPtr movement, std::unique_ptr<Router> router);
  /// Allocation-free registration forms: the movement spec goes straight
  /// into its SoA lane with no intermediate heap model object. Preferred by
  /// the harness/bench hot paths (world rebuilds across sweep seeds).
  NodeIdx add_node(const mobility::RandomWaypointParams& movement,
                   std::unique_ptr<Router> router);
  NodeIdx add_node(const mobility::CommunityMovementParams& movement,
                   std::unique_ptr<Router> router);
  NodeIdx add_node(std::shared_ptr<const geo::Polyline> route,
                   const mobility::BusParams& movement, std::unique_ptr<Router> router);
  /// Stationary infrastructure node: position fixed (or drawn per seed for
  /// uniform placement); zero movement-lane cost — step_all never visits it.
  NodeIdx add_node(const mobility::StationaryNodeSpec& movement,
                   std::unique_ptr<Router> router);

  /// Installs the workload generator (optional; at most one) — the
  /// degenerate params are the network-wide ONE default; matrix entries,
  /// temporal profiles, and trace replay per sim/traffic.hpp.
  void set_traffic(const TrafficParams& params);

  // ---- cross-run reuse (see header comment) ----
  /// Clears ALL simulation state and the node set while retaining every
  /// allocated pool, and applies a (possibly different) config. The caller
  /// then re-registers nodes with add_node() — slots are recycled in
  /// registration order — and optionally set_traffic(), exactly like on a
  /// fresh World. Runs are bit-identical to a fresh World(config) build.
  void reset(const WorldConfig& config);
  /// Restarts the CURRENT node set under a new seed: per-node RNG streams
  /// re-derived, movement re-initialized in place, routers reset via
  /// Router::reset(), buffers/metrics/contact state/traffic cleared with
  /// their capacity retained. Requires a completed node set (not mid-
  /// rebuild); structure (node count, movement specs, router instances,
  /// traffic params) is unchanged. ~0 heap allocations; bit-identical to a
  /// fresh build of the same scenario with the new seed.
  void reseed(std::uint64_t seed);

  /// Runs the simulation until `duration` seconds of simulated time.
  void run(double duration);
  /// Advances a single step (exposed for tests and incremental drivers).
  void step();

  /// Number of whole step_dt steps covering `duration`. Tolerance-aware:
  /// ratios within a few ulps of an integer count as that integer, so
  /// duration = 600 with dt = 0.1 is always exactly 6000 steps regardless
  /// of how 600/0.1 rounds; genuinely fractional ratios round up.
  [[nodiscard]] static std::int64_t step_count_for(double duration, double step_dt);
  /// Steps executed so far; sim time is exactly step_count() * step_dt.
  [[nodiscard]] std::int64_t step_count() const noexcept { return step_count_; }
  /// True when the last run() advanced via the kinetic event kernel rather
  /// than the fixed-dt loop (i.e. event_kernel was set and no fallback hit).
  [[nodiscard]] bool event_kernel_used() const noexcept { return event_kernel_used_; }

  // ---- router-facing services ----
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] NodeIdx node_count() const noexcept {
    return static_cast<NodeIdx>(nodes_.size());
  }
  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] Buffer& buffer_of(NodeIdx node);
  [[nodiscard]] const Buffer& buffer_of(NodeIdx node) const;
  [[nodiscard]] Router& router_of(NodeIdx node);
  [[nodiscard]] const Router& router_of(NodeIdx node) const;
  [[nodiscard]] geo::Vec2 position_of(NodeIdx node) const;
  [[nodiscard]] bool in_contact(NodeIdx a, NodeIdx b) const;
  /// Current neighbors of `node`, ascending, as a copy (compat API; prefer
  /// neighbors_of() on hot paths).
  [[nodiscard]] std::vector<NodeIdx> contacts_of(NodeIdx node) const;
  /// Zero-copy view of `node`'s current neighbors, ascending. The reference
  /// stays valid until the next detect_contacts() pass (i.e. across a whole
  /// router callback); send_copy()/enqueue_transfer() do not invalidate it.
  [[nodiscard]] const std::vector<NodeIdx>& neighbors_of(NodeIdx node) const;
  [[nodiscard]] bool peer_has(NodeIdx peer, MsgId id) const;
  bool enqueue_transfer(NodeIdx from, NodeIdx to, MsgId id, int r_recv, int r_deduct);
  [[nodiscard]] util::Pcg32& routing_rng(NodeIdx node);

  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  /// Injects a message directly at its source (tests / custom drivers).
  /// Replica count comes from the source router's initial_replicas().
  void inject_message(const Message& m);

  /// Total contact (link-up) events so far — a mobility diagnostic.
  [[nodiscard]] std::int64_t contact_events() const noexcept { return contact_events_; }
  /// Currently-active links (adjacency invariant checks in tests).
  [[nodiscard]] std::size_t active_connection_count() const noexcept {
    return live_connections_;
  }

 private:
  /// The kinetic kernel replays the exact step-grid semantics through the
  /// World's own link/traffic/transfer/sweep machinery.
  friend class EventKernel;

  struct Transfer {
    NodeIdx from = -1;
    NodeIdx to = -1;
    Message msg;
    int r_recv = 0;
    int r_deduct = 0;
    double bytes_left = 0.0;
    bool started = false;
  };

  /// FIFO of transfers with reusable storage (replaces std::deque):
  /// pop_front() advances a head index; storage compacts in place only when
  /// the queue drains or the dead prefix dominates, so a steady-state
  /// connection never heap-allocates.
  class TransferQueue {
   public:
    [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
    [[nodiscard]] std::size_t size() const noexcept { return items_.size() - head_; }
    [[nodiscard]] Transfer& front() noexcept { return items_[head_]; }
    void push_back(const Transfer& t) { items_.push_back(t); }
    void pop_front() {
      ++head_;
      if (head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      } else if (head_ >= 32 && head_ * 2 >= items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    void clear() noexcept {
      items_.clear();
      head_ = 0;
    }
    [[nodiscard]] const Transfer* begin() const noexcept { return items_.data() + head_; }
    [[nodiscard]] const Transfer* end() const noexcept {
      return items_.data() + items_.size();
    }
    [[nodiscard]] Transfer* begin() noexcept { return items_.data() + head_; }
    [[nodiscard]] Transfer* end() noexcept { return items_.data() + items_.size(); }

   private:
    std::vector<Transfer> items_;
    std::size_t head_ = 0;
  };

  /// One active link. Lives in a recycled slot pool; addressed via the
  /// endpoints' adjacency lists rather than a hash map.
  struct Connection {
    NodeIdx a = -1;  ///< lower endpoint
    NodeIdx b = -1;  ///< higher endpoint
    TransferQueue queue;  ///< half-duplex: one transfer at a time
    /// Position in active_slots_ while queued work exists (kNoSlot when
    /// not listed); enables O(1) swap-removal on link-down.
    std::uint32_t active_idx = 0xffffffffu;
    bool alive = false;  ///< slot occupied
  };

  /// Sorted adjacency of one node: peers_ ascending, slots_ parallel
  /// (slots_[i] is the connection slot for peers_[i]).
  struct Adjacency {
    std::vector<NodeIdx> peers;
    std::vector<std::uint32_t> slots;
  };

  /// Per-node simulation state. Movement state and positions live in the
  /// MovementEngine's SoA lanes, not here.
  struct Node {
    std::unique_ptr<Router> router;
    Buffer buffer;
    util::Pcg32 routing_rng;

    Node(std::unique_ptr<Router> r, std::int64_t buffer_bytes, util::Pcg32 rng)
        : router(std::move(r)), buffer(buffer_bytes), routing_rng(rng) {}
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Pair key ordered by (lo, hi): sorting keys reproduces the seed's
  /// deterministic link-up callback order (ascending (a, b) pairs).
  static std::uint64_t pair_key(NodeIdx a, NodeIdx b) noexcept;

  [[nodiscard]] std::uint32_t slot_of(NodeIdx a, NodeIdx b) const noexcept;
  void link_up(NodeIdx a, NodeIdx b);
  void link_down(NodeIdx a, NodeIdx b);
  void activate(std::uint32_t slot);
  void deactivate(std::uint32_t slot);

  /// Shared add_node tail: wires node `engine_node` (just registered with
  /// the movement engine) into a recycled or fresh Node slot.
  NodeIdx add_node_common(int engine_node, std::unique_ptr<Router> router);
  /// Clears run state (time, metrics, contact layer, traffic gate) while
  /// retaining capacity; shared by reset() and reseed().
  void clear_sim_state();
  /// Trims surplus recycled node slots after a reset()+add_node rebuild.
  void finalize_rebuild();

  void move_nodes();
  void sort_pair_keys(std::vector<std::uint64_t>& keys);
  void detect_contacts();
  void progress_transfers();
  void complete_transfer(Transfer& tr);
  void generate_traffic();
  void sweep_expired();
  void abort_connection_queue(Connection& conn);
  void unindex_inbound(const Transfer& tr);
  /// Makes room in `node`'s buffer for msg; returns false if impossible.
  bool make_room(NodeIdx node, const Message& msg);

  WorldConfig config_;
  /// Sim time is DERIVED: always step_count_ * step_dt, never accumulated
  /// (`now_ += dt` drifted against the sweep/traffic boundaries).
  double now_ = 0.0;
  std::int64_t step_count_ = 0;
  /// TTL sweeps fired so far; the next fires at the first step whose time
  /// reaches (sweeps_done_ + 1) * ttl_sweep_interval (integer-indexed, no
  /// accumulated next-sweep clock).
  std::int64_t sweeps_done_ = 0;
  bool event_kernel_used_ = false;
  std::vector<Node> nodes_;
  mobility::MovementEngine engine_;  ///< SoA positions + trajectory state
  geo::SpatialGrid grid_;
  bool rebuilding_ = false;          ///< between reset() and finalize_rebuild()
  std::size_t rebuild_cursor_ = 0;   ///< node slots re-registered so far

  // ---- contact layer ----
  std::vector<Adjacency> adjacency_;         // per-node sorted neighbor lists
  std::vector<Connection> conn_pool_;        // recycled connection slots
  std::vector<std::uint32_t> free_slots_;    // free list into conn_pool_
  std::size_t live_connections_ = 0;
  std::vector<std::uint64_t> prev_pairs_;    // sorted pair keys, last step
  std::vector<std::uint64_t> curr_pairs_;    // scratch: sorted keys, this step
  std::vector<std::uint64_t> diff_scratch_;  // scratch: ups/downs of the diff
  std::vector<std::pair<std::int32_t, std::int32_t>> pair_scratch_;  // grid out
  std::vector<std::uint32_t> radix_count_;   // scratch: counting-sort buckets
  std::vector<std::uint64_t> radix_tmp_;     // scratch: counting-sort output
  std::vector<std::uint32_t> active_slots_;  // connections with queued work
  std::vector<std::pair<std::uint64_t, std::uint32_t>> progress_scratch_;

  /// Multiset of message ids (id -> instance count) over the shared flat
  /// open-addressing table. Membership is O(1) like the former
  /// unordered_multiset but without its per-insert heap node, and unlike a
  /// plain vector bag it survives mass-enqueue events (one epidemic
  /// contact-up can queue hundreds of transfers toward a node, and every
  /// subsequent peer_has() probes the bag) without going linear.
  class IdBag {
   public:
    [[nodiscard]] bool contains(MsgId id) const noexcept {
      return counts_.find(id) != nullptr;
    }
    void insert(MsgId id) { ++counts_.find_or_insert(id, 0); }
    /// Removes one instance; no-op when absent.
    void erase_one(MsgId id) noexcept {
      std::uint32_t* count = counts_.find(id);
      if (count != nullptr && --*count == 0) counts_.erase(id);
    }

    /// Drops every instance, retaining table capacity (cross-run reuse).
    void clear() noexcept { counts_.clear(); }

   private:
    FlatIdTable<std::uint32_t> counts_;
  };

  /// Per-node bag of message ids currently queued toward that node (one
  /// instance per queued transfer), so peer_has() never scans connection
  /// queues.
  std::vector<IdBag> inbound_queued_;
  std::vector<MsgId> expired_scratch_;  // reused by sweep_expired
  std::unique_ptr<TrafficGenerator> traffic_;  ///< retained across resets
  TrafficParams traffic_params_;  ///< last set_traffic args (reseed re-derives)
  bool has_traffic_ = false;      ///< generator armed for the current run
  MsgId next_msg_id_ = 0;
  Metrics metrics_;
  std::int64_t contact_events_ = 0;
  bool started_ = false;
};

}  // namespace dtn::sim
