// Stationary infrastructure nodes (relays, roadside units, throwboxes): a
// node that never moves. The GROUP vocabulary (StationaryParams) describes
// how a whole group of such nodes is placed on the map — a deterministic
// grid or a per-seed uniform draw — while StationaryNodeSpec is the
// resolved per-node placement the engine executes. Stationary nodes cost
// nothing in the movement step loop: the MovementEngine gives them a
// dedicated lane that step_all() never visits (their position is written
// once at init and on reseed).
#pragma once

#include <string>

#include "geo/vec2.hpp"

namespace dtn::mobility {

/// Group-level placement vocabulary (`group.<g>.*` keys for
/// `model = stationary`).
///   placement = grid    — the group's nodes are laid out row-major on a
///                         near-square grid over the map extent (inset by
///                         `margin`), deterministically: the same spec
///                         places the same nodes at every seed;
///   placement = uniform — each node draws its position uniformly from the
///                         inset extent out of its own movement stream, so
///                         positions vary per seed like every other model's
///                         trajectories.
struct StationaryParams {
  std::string placement = "grid";  ///< grid | uniform
  double margin = 0.0;             ///< inset from the map edges (m)
};

/// Resolved placement of ONE stationary node (what World::add_node and the
/// engine's stationary lane consume). For grid placement `pos` is final;
/// for uniform placement the position is drawn from the node's movement
/// stream at init (and re-drawn on every reseed) inside [area_min, area_max].
struct StationaryNodeSpec {
  geo::Vec2 pos{0.0, 0.0};
  bool uniform = false;
  geo::Vec2 area_min{0.0, 0.0};
  geo::Vec2 area_max{0.0, 0.0};
};

}  // namespace dtn::mobility
