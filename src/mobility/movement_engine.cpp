#include "mobility/movement_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace dtn::mobility {

namespace {

/// uniform(lo, hi) applied to a pre-drawn next_double() value — the exact
/// arithmetic of Pcg32::uniform, so batched draws map to the same numbers.
inline double map_uniform(double lo, double hi, double u) noexcept {
  return lo + (hi - lo) * u;
}

}  // namespace

int MovementEngine::add_waypoint(const RandomWaypointParams& p) {
  const int node = static_cast<int>(pos_.size());
  WpSpec spec;
  spec.world_min = p.world_min;
  spec.world_max = p.world_max;
  spec.speed_min = p.speed_min;
  spec.speed_max = p.speed_max;
  spec.pause_min = p.pause_min;
  spec.pause_max = p.pause_max;
  spec.community = false;
  spec.arrival_draws = 4;  // pause, target.x, target.y, speed
  pos_.emplace_back();
  kind_.push_back(Kind::kWaypoint);
  lane_.push_back(static_cast<std::uint32_t>(wp_node_.size()));
  wp_node_.push_back(node);
  wp_spec_.push_back(spec);
  wp_target_.emplace_back();
  wp_speed_.push_back(0.0);
  wp_pause_until_.push_back(0.0);
  wp_rng_.emplace_back();
  return node;
}

int MovementEngine::add_community(const CommunityMovementParams& p) {
  const int node = static_cast<int>(pos_.size());
  WpSpec spec;
  spec.world_min = p.world_min;
  spec.world_max = p.world_max;
  spec.home_min = p.home_min;
  spec.home_max = p.home_max;
  spec.home_prob = p.home_prob;
  spec.speed_min = p.speed_min;
  spec.speed_max = p.speed_max;
  spec.pause_min = p.pause_min;
  spec.pause_max = p.pause_max;
  spec.community = true;
  // bernoulli() consumes a draw only for probabilities strictly inside
  // (0, 1) — the degenerate cases return without touching the stream.
  const bool bern_draws = p.home_prob > 0.0 && p.home_prob < 1.0;
  spec.arrival_draws = static_cast<std::uint8_t>(bern_draws ? 5 : 4);
  pos_.emplace_back();
  kind_.push_back(Kind::kCommunity);
  lane_.push_back(static_cast<std::uint32_t>(wp_node_.size()));
  wp_node_.push_back(node);
  wp_spec_.push_back(spec);
  wp_target_.emplace_back();
  wp_speed_.push_back(0.0);
  wp_pause_until_.push_back(0.0);
  wp_rng_.emplace_back();
  return node;
}

int MovementEngine::add_bus(std::shared_ptr<const geo::Polyline> route,
                            const BusParams& p) {
  const int node = static_cast<int>(pos_.size());
  pos_.emplace_back();
  kind_.push_back(Kind::kBus);
  lane_.push_back(static_cast<std::uint32_t>(bus_node_.size()));
  bus_node_.push_back(node);
  bus_route_.push_back(std::move(route));
  bus_params_.push_back(p);
  bus_cursor_.push_back(0.0);
  bus_next_stop_.push_back(0.0);
  bus_speed_.push_back(1.0);
  bus_pause_until_.push_back(0.0);
  bus_seg_hint_.push_back(0);
  bus_rng_.emplace_back();
  return node;
}

int MovementEngine::add_stationary(const StationaryNodeSpec& spec) {
  const int node = static_cast<int>(pos_.size());
  pos_.push_back(spec.pos);
  kind_.push_back(Kind::kStationary);
  lane_.push_back(static_cast<std::uint32_t>(st_spec_.size()));
  st_spec_.push_back(spec);
  return node;
}

int MovementEngine::add_custom(MovementModelPtr model) {
  const int node = static_cast<int>(pos_.size());
  pos_.emplace_back();
  kind_.push_back(Kind::kCustom);
  lane_.push_back(static_cast<std::uint32_t>(cust_node_.size()));
  cust_node_.push_back(node);
  cust_model_.push_back(std::move(model));
  return node;
}

int MovementEngine::add(MovementModelPtr model) {
  if (const auto* rw = dynamic_cast<const RandomWaypoint*>(model.get())) {
    return add_waypoint(rw->params());
  }
  if (const auto* cm = dynamic_cast<const CommunityMovement*>(model.get())) {
    return add_community(cm->params());
  }
  if (const auto* bus = dynamic_cast<const BusMovement*>(model.get())) {
    return add_bus(bus->route(), bus->params());
  }
  if (const auto* pin = dynamic_cast<const Stationary*>(model.get())) {
    StationaryNodeSpec spec;
    spec.pos = pin->position();
    return add_stationary(spec);
  }
  return add_custom(std::move(model));
}

void MovementEngine::clear() {
  pos_.clear();
  kind_.clear();
  lane_.clear();
  wp_node_.clear();
  wp_spec_.clear();
  wp_target_.clear();
  wp_speed_.clear();
  wp_pause_until_.clear();
  wp_rng_.clear();
  bus_node_.clear();
  bus_route_.clear();
  bus_params_.clear();
  bus_cursor_.clear();
  bus_next_stop_.clear();
  bus_speed_.clear();
  bus_pause_until_.clear();
  bus_seg_hint_.clear();
  bus_rng_.clear();
  st_spec_.clear();
  cust_node_.clear();
  cust_model_.clear();
  kin_seg_.clear();
}

MovementEngine::WpPick MovementEngine::pick_waypoint(const WpSpec& sp,
                                                     const double* u,
                                                     std::size_t j) {
  geo::Vec2 lo = sp.world_min;
  geo::Vec2 hi = sp.world_max;
  if (sp.community) {
    bool home;
    if (sp.home_prob <= 0.0) {
      home = false;
    } else if (sp.home_prob >= 1.0) {
      home = true;
    } else {
      home = u[j++] < sp.home_prob;
    }
    if (home) {
      lo = sp.home_min;
      hi = sp.home_max;
    }
  }
  return {{map_uniform(lo.x, hi.x, u[j]), map_uniform(lo.y, hi.y, u[j + 1])},
          map_uniform(sp.speed_min, sp.speed_max, u[j + 2])};
}

void MovementEngine::init_waypoint(std::size_t lane, int node, double start_time) {
  const WpSpec& sp = wp_spec_[lane];
  util::Pcg32& rng = wp_rng_[lane];
  // Initial position: RandomWaypoint draws from the world rectangle,
  // CommunityMovement from the home rectangle — then both pick the first
  // waypoint. Draw order matches the model classes' init() exactly.
  double u[6];
  rng.fill_doubles(u, 2u + sp.arrival_draws - 1u);  // pos + pick (no pause draw)
  const geo::Vec2 init_lo = sp.community ? sp.home_min : sp.world_min;
  const geo::Vec2 init_hi = sp.community ? sp.home_max : sp.world_max;
  pos_[static_cast<std::size_t>(node)] = {map_uniform(init_lo.x, init_hi.x, u[0]),
                                          map_uniform(init_lo.y, init_hi.y, u[1])};
  wp_pause_until_[lane] = start_time;
  const WpPick pick = pick_waypoint(sp, u, 2);
  wp_target_[lane] = pick.target;
  wp_speed_[lane] = pick.speed;
}

void MovementEngine::init_bus(std::size_t lane, int node, double start_time) {
  const BusParams& p = bus_params_[lane];
  const geo::Polyline* route = bus_route_[lane].get();
  util::Pcg32& rng = bus_rng_[lane];
  const double len = route != nullptr ? route->total_length() : 0.0;
  // Legacy draw order: cursor (only when the route has length), then speed.
  double u[2];
  if (len > 0.0) {
    rng.fill_doubles(u, 2);
    bus_cursor_[lane] = map_uniform(0.0, len, u[0]);
    bus_speed_[lane] = map_uniform(p.speed_min, p.speed_max, u[1]);
  } else {
    rng.fill_doubles(u, 1);
    bus_cursor_[lane] = 0.0;
    bus_speed_[lane] = map_uniform(p.speed_min, p.speed_max, u[0]);
  }
  bus_next_stop_[lane] = bus_cursor_[lane] + p.stop_spacing;
  bus_pause_until_[lane] = start_time;
  bus_seg_hint_[lane] = 0;
  pos_[static_cast<std::size_t>(node)] =
      route != nullptr ? route->point_at_hinted(bus_cursor_[lane], bus_seg_hint_[lane])
                       : geo::Vec2{};
}

void MovementEngine::init_node(int node, util::Pcg32 rng, double start_time) {
  const auto i = static_cast<std::size_t>(node);
  const std::size_t lane = lane_[i];
  switch (kind_[i]) {
    case Kind::kWaypoint:
    case Kind::kCommunity:
      wp_rng_[lane] = rng;
      init_waypoint(lane, node, start_time);
      break;
    case Kind::kBus:
      bus_rng_[lane] = rng;
      init_bus(lane, node, start_time);
      break;
    case Kind::kStationary: {
      // Two uniforms (x, y) for per-seed placement, no draws for fixed.
      const StationaryNodeSpec& sp = st_spec_[lane];
      if (sp.uniform) {
        double u[2];
        rng.fill_doubles(u, 2);
        pos_[i] = {map_uniform(sp.area_min.x, sp.area_max.x, u[0]),
                   map_uniform(sp.area_min.y, sp.area_max.y, u[1])};
      } else {
        pos_[i] = sp.pos;
      }
      break;
    }
    case Kind::kCustom:
      cust_model_[lane]->init(rng, start_time);
      pos_[i] = cust_model_[lane]->position();
      break;
  }
}

void MovementEngine::step_waypoints(double now, double dt) {
  const std::size_t m = wp_node_.size();
  for (std::size_t k = 0; k < m; ++k) {
    double remaining = dt;
    double t = now;
    geo::Vec2 pos = pos_[static_cast<std::size_t>(wp_node_[k])];
    geo::Vec2 target = wp_target_[k];
    double speed = wp_speed_[k];
    double pause_until = wp_pause_until_[k];
    const WpSpec& sp = wp_spec_[k];
    // A single dt may span pause end + several waypoint arrivals; consume
    // it piecewise so trajectories are independent of the step size.
    // (Exact arithmetic of the RandomWaypoint/CommunityMovement step
    // loop — see header equivalence contract.)
    while (remaining > 1e-12) {
      if (t < pause_until) {
        const double wait = std::min(remaining, pause_until - t);
        t += wait;
        remaining -= wait;
        continue;
      }
      const double dist_to_target = pos.distance_to(target);
      if (speed <= 0.0) break;
      const double travel_time = dist_to_target / speed;
      if (travel_time <= remaining) {
        pos = target;
        t += travel_time;
        remaining -= travel_time;
        // Waypoint event: one batched block of draws — pause, (bernoulli,)
        // target.x, target.y, speed — in the model classes' order.
        double u[5];
        wp_rng_[k].fill_doubles(u, sp.arrival_draws);
        pause_until = t + map_uniform(sp.pause_min, sp.pause_max, u[0]);
        const WpPick pick = pick_waypoint(sp, u, 1);
        target = pick.target;
        speed = pick.speed;
      } else {
        pos += (target - pos).normalized() * (speed * remaining);
        remaining = 0.0;
      }
    }
    pos_[static_cast<std::size_t>(wp_node_[k])] = pos;
    wp_target_[k] = target;
    wp_speed_[k] = speed;
    wp_pause_until_[k] = pause_until;
  }
}

void MovementEngine::step_buses(double now, double dt) {
  const std::size_t m = bus_node_.size();
  for (std::size_t k = 0; k < m; ++k) {
    const geo::Polyline* route = bus_route_[k].get();
    if (route == nullptr || route->total_length() <= 0.0) continue;
    const BusParams& p = bus_params_[k];
    double remaining = dt;
    double t = now;
    double cursor = bus_cursor_[k];
    double next_stop = bus_next_stop_[k];
    double speed = bus_speed_[k];
    double pause_until = bus_pause_until_[k];
    while (remaining > 1e-12) {
      if (t < pause_until) {
        const double wait = std::min(remaining, pause_until - t);
        t += wait;
        remaining -= wait;
        continue;
      }
      const double dist_to_stop = next_stop - cursor;
      const double travel_time = speed > 0.0 ? dist_to_stop / speed : remaining;
      if (travel_time <= remaining) {
        cursor = next_stop;
        t += travel_time;
        remaining -= travel_time;
        // Stop event: pause then speed, one batched block.
        double u[2];
        bus_rng_[k].fill_doubles(u, 2);
        pause_until = t + map_uniform(p.pause_min, p.pause_max, u[0]);
        speed = map_uniform(p.speed_min, p.speed_max, u[1]);
        next_stop = cursor + p.stop_spacing;
      } else {
        cursor += speed * remaining;
        remaining = 0.0;
      }
    }
    // The cursor grows monotonically; point_at wraps modulo the route
    // length. Rebase both cursor and stop together only if a run ever gets
    // astronomically long (same guard as BusMovement).
    const double len = route->total_length();
    if (cursor > 1e12) {
      const double base = std::floor(cursor / len) * len;
      cursor -= base;
      next_stop -= base;
    }
    pos_[static_cast<std::size_t>(bus_node_[k])] =
        route->point_at_hinted(cursor, bus_seg_hint_[k]);
    bus_cursor_[k] = cursor;
    bus_next_stop_[k] = next_stop;
    bus_speed_[k] = speed;
    bus_pause_until_[k] = pause_until;
  }
}

void MovementEngine::kinetic_begin_travel(KineticSegment& seg, std::size_t lane,
                                          double t) {
  seg.t0 = t;
  seg.paused = false;
  const double speed = wp_speed_[lane];
  if (speed <= 0.0) {
    // Same terminal state as the fixed-dt kernel's `if (speed <= 0) break`:
    // the node never moves again.
    seg.vel = {};
    seg.t_end = std::numeric_limits<double>::infinity();
    return;
  }
  const geo::Vec2 target = wp_target_[lane];
  const double dist = seg.origin.distance_to(target);
  seg.vel = (target - seg.origin).normalized() * speed;
  seg.t_end = t + dist / speed;
}

void MovementEngine::kinetic_start(double t) {
  assert(kinetic_capable());
  kin_seg_.resize(pos_.size());
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    KineticSegment& seg = kin_seg_[i];
    seg.origin = pos_[i];
    seg.t0 = t;
    if (kind_[i] == Kind::kWaypoint || kind_[i] == Kind::kCommunity) {
      const std::size_t lane = lane_[i];
      if (t < wp_pause_until_[lane]) {
        seg.vel = {};
        seg.t_end = wp_pause_until_[lane];
        seg.paused = true;
      } else {
        kinetic_begin_travel(seg, lane, t);
      }
    } else {  // stationary
      seg.vel = {};
      seg.t_end = std::numeric_limits<double>::infinity();
      seg.paused = false;
    }
  }
}

const KineticSegment& MovementEngine::kinetic_advance(int node) {
  const auto i = static_cast<std::size_t>(node);
  KineticSegment& seg = kin_seg_[i];
  assert(kind_[i] == Kind::kWaypoint || kind_[i] == Kind::kCommunity);
  const std::size_t lane = lane_[i];
  const double t = seg.t_end;
  if (seg.paused) {
    kinetic_begin_travel(seg, lane, t);
    return seg;
  }
  // Waypoint arrival: land exactly on the target, then the same batched
  // draw block as the fixed-dt kernel — pause, (bernoulli,) target.x,
  // target.y, speed — in the same per-node stream order.
  const WpSpec& sp = wp_spec_[lane];
  pos_[i] = wp_target_[lane];
  double u[5];
  wp_rng_[lane].fill_doubles(u, sp.arrival_draws);
  wp_pause_until_[lane] = t + map_uniform(sp.pause_min, sp.pause_max, u[0]);
  const WpPick pick = pick_waypoint(sp, u, 1);
  wp_target_[lane] = pick.target;
  wp_speed_[lane] = pick.speed;
  seg.origin = pos_[i];
  seg.t0 = t;
  seg.vel = {};
  seg.t_end = wp_pause_until_[lane];
  seg.paused = true;
  return seg;
}

void MovementEngine::kinetic_sync_positions(double t) {
  for (std::size_t i = 0; i < kin_seg_.size(); ++i) {
    pos_[i] = kinetic_position(static_cast<int>(i), t);
  }
}

void MovementEngine::step_all(double now, double dt) {
  step_waypoints(now, dt);
  step_buses(now, dt);
  const std::size_t m = cust_node_.size();
  for (std::size_t k = 0; k < m; ++k) {
    cust_model_[k]->step(now, dt);
    pos_[static_cast<std::size_t>(cust_node_[k])] = cust_model_[k]->position();
  }
}

}  // namespace dtn::mobility
