// Uniform hash grid for O(1) neighbor queries, with two maintenance modes:
//
//  - Rebuild mode: clear() + insert() every pass, for small clouds and
//    tests.
//  - Incremental mode: update(id, pos) moves a point between cells only
//    when it actually crosses a cell boundary. Combined with
//    all_pairs_into() this makes a full pass allocation- and
//    hash-lookup-free in steady state.
//
// sim::World uses incremental mode to build its skin list of candidate
// pairs (sim/world.hpp): cells as wide as the list range r + s (three radio
// ranges), updated and swept only on the steps that rebuild the list, not
// every step.
//
// Cells live in a slot vector; each cell caches the indices of its four
// forward neighbors (E, NE, N, NW), patched when cells are created or
// pruned, so pair enumeration never consults the hash index. The hash index
// (cell key -> slot) is touched only when a point crosses into a cell that
// is not already tracked. Cells that stay empty for kPruneAfter consecutive
// epochs are pruned so long traces over unbounded terrain cannot grow the
// structures forever.
//
// Pair sweeps walk the OCCUPIED-cell index (PR 3): cells enter/leave a
// dense occupied list on their 0<->1 member transitions (cell crossings
// only, O(1)), so all_pairs_into touches O(occupied) cells instead of
// O(tracked). On route-structured mobility the tracked set is the union of
// everywhere any node has recently been — easily 10-30x the cells occupied
// at one instant (and periodic route revisits keep them from pruning), so
// the sweep was dominated by streaming empty cells at campaign-sized node
// counts. Dense grids, where most tracked cells are occupied, keep the
// sequential storage walk instead (identical pair sets either way).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/vec2.hpp"

namespace dtn::geo {

class SpatialGrid {
 public:
  explicit SpatialGrid(double cell_size);

  /// Removes every point (cell structure and capacities are retained).
  void clear();
  /// Removes every point AND every tracked cell, retaining only the vector
  /// capacities. Unlike clear(), the next pass rediscovers its cell set
  /// from scratch — the right call when the upcoming points live in a
  /// different region (a World rebuilt for a different map/seed), where
  /// clear()'s retained cells would be pure stale-iteration overhead for
  /// the pair sweep until pruning catches up.
  void reset();
  /// Adds a point. Ids must be non-negative and unique among the points
  /// currently present (positions live in an id-indexed side array so the
  /// pair sweep touches one cache line per cell).
  void insert(std::int32_t id, Vec2 pos);
  /// Inserts `id` or moves it to `pos`, relocating cells only on boundary
  /// crossings. Requires id >= 0.
  void update(std::int32_t id, Vec2 pos);
  /// Removes `id` if present; returns whether it was.
  bool remove(std::int32_t id);
  /// Marks the start of a detection pass in incremental mode (update()
  /// maintenance): advances the pruning epoch. clear() does this itself.
  void advance_epoch();

  /// Ids of all inserted points within `radius` of `pos` (exact distance
  /// filter applied on top of the candidate cells). Excludes `exclude_id`.
  [[nodiscard]] std::vector<std::int32_t> query(Vec2 pos, double radius,
                                                std::int32_t exclude_id = -1) const;

  /// Allocation-free variant of query(): clears `out` and appends matches.
  void query_into(Vec2 pos, double radius, std::vector<std::int32_t>& out,
                  std::int32_t exclude_id = -1) const;

  /// All unordered pairs (a < b) within `radius` of each other, via hash
  /// lookups per neighbor cell and a freshly allocated result
  /// (all_pairs_into is the fast path). Precondition: radius <= cell_size()
  /// (World sweeps with radius == cell == its list range, so this holds).
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::int32_t>> all_pairs(
      double radius) const;

  /// Fast allocation-free all_pairs: clears `out`, appends every unordered
  /// pair (a < b) within `radius`, walking the cached forward-neighbor
  /// links instead of the hash index. Pair order is unspecified; callers
  /// needing determinism must sort (the simulator diffs sorted key
  /// vectors, so it always does).
  void all_pairs_into(double radius,
                      std::vector<std::pair<std::int32_t, std::int32_t>>& out) const;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] double cell_size() const noexcept { return cell_; }
  /// Number of distinct cells currently tracked (occupied or retained
  /// empty); exposed so tests can observe stale-cell pruning.
  [[nodiscard]] std::size_t cell_count() const noexcept { return index_.size(); }
  /// Number of cells currently holding at least one point — the set the
  /// pair sweep walks; exposed so tests can pin the occupied-index
  /// bookkeeping.
  [[nodiscard]] std::size_t occupied_cell_count() const noexcept {
    return occupied_.size();
  }

  /// A cell empty for this many consecutive epochs is pruned.
  static constexpr std::uint64_t kPruneAfter = 2048;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Cells hold member ids only — positions live in the id-indexed
  /// pos_by_id_ array (sequentially rewritten by update(), L1-resident
  /// during the pair sweep). Ids live inline in the cell up to kInline
  /// (at DTN densities a cell holds a few ids, so overflow is rare); the
  /// overflow vector keeps correctness for dense hot spots. This makes the pair sweep one cache fetch per cell instead
  /// of a dependent cell -> heap-vector pointer chase.
  struct Cell {
    static constexpr std::uint32_t kInline = 8;
    std::int32_t inline_ids[kInline];
    std::vector<std::int32_t> overflow;
    std::uint32_t size = 0;
    std::uint64_t key = 0;
    std::uint32_t fwd[4] = {kNone, kNone, kNone, kNone};  ///< E, NE, N, NW
    std::uint32_t occ_idx = kNone;    ///< position in occupied_ (kNone if empty)
    std::uint64_t emptied_epoch = 0;  ///< epoch the cell last became empty
    bool alive = false;

    [[nodiscard]] std::int32_t& id_at(std::uint32_t i) noexcept {
      return i < kInline ? inline_ids[i] : overflow[i - kInline];
    }
    [[nodiscard]] std::int32_t id_at(std::uint32_t i) const noexcept {
      return i < kInline ? inline_ids[i] : overflow[i - kInline];
    }
  };

  /// Where one id currently lives (indexed by id; incremental mode only).
  struct Locator {
    std::uint32_t cell = kNone;
    std::uint32_t slot = 0;
  };

  using CellKey = std::uint64_t;
  [[nodiscard]] CellKey key_for(Vec2 pos) const noexcept;
  static CellKey make_key(std::int64_t cx, std::int64_t cy) noexcept;

  [[nodiscard]] std::uint32_t cell_for_create(CellKey key);
  void add_member(std::uint32_t cell_idx, std::int32_t id);
  void remove_member(std::uint32_t cell_idx, std::uint32_t slot);
  void maintain();
  void prune_stale_cells();
  void compact();

  double cell_;
  double inv_cell_;  // multiply instead of divide in the per-point hot path
  std::size_t count_ = 0;
  std::uint64_t epoch_ = 0;
  std::size_t created_since_compact_ = 0;
  std::vector<Cell> cells_;                         // slot storage
  std::vector<std::uint32_t> free_cells_;           // free slots in cells_
  std::vector<std::uint32_t> occupied_;             // cells with size > 0
  std::unordered_map<CellKey, std::uint32_t> index_;  // key -> slot
  std::vector<Locator> where_;                      // id -> location
  std::vector<Vec2> pos_by_id_;                     // id -> position
};

}  // namespace dtn::geo
