// Allocation-regression guard for the PR-won hot paths: the incremental
// contact layer (PR 1), the slab message store (PR 2), and the cross-run
// reuse + chunked-dispatch engine (PR 3).
// A replaced global operator new counts heap allocations inside tight
// measurement windows (no gtest machinery runs while counting):
//   - steady-state Buffer churn (insert/erase/evict/expire at a fixed
//     high-water count) must perform exactly zero allocations;
//   - a warmed-up traffic-free World::step loop must stay at ~0
//     allocations/step (residual: rare spatial-grid cell discovery);
//   - a warmed-up traffic-bearing epidemic workload with buffer pressure
//     must stay far below one allocation/step (residual: per-delivery
//     metrics bookkeeping and rare container growth);
//   - World::reseed() of a warmed world must perform exactly zero
//     allocations, and a whole reused-world seed (reseed + full re-run)
//     must stay at ~0 allocations/step;
//   - the same zero-allocation reseed holds for EER routers, whose MI
//     views hold shared copy-on-write rows;
//   - a ThreadPool::parallel_for dispatch on the warm shared pool must
//     perform zero allocations on the coordinating thread (no per-task
//     std::function, no futures, no queue nodes).
// If someone reintroduces a per-step vector return, a per-transfer hash
// node, a per-insert list node, a per-task heap closure, or a per-seed
// world rebuild, this test fails.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "../test_support.hpp"
#include "mobility/random_waypoint.hpp"
#include "routing/eer.hpp"
#include "routing/epidemic.hpp"
#include "sim/buffer.hpp"
#include "sim/world.hpp"
#include "util/thread_pool.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
bool g_count_allocs = false;

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dtn::sim {
namespace {

using test::make_message;

StoredMessage stored(MsgId id, double created, double ttl = 1200.0) {
  StoredMessage sm;
  sm.msg = make_message(id, 0, 1, created, ttl, 25);
  sm.received_at = created;
  return sm;
}

std::uint64_t counted(const std::function<void()>& body) {
  g_allocs.store(0);
  g_count_allocs = true;
  body();
  g_count_allocs = false;
  return g_allocs.load();
}

TEST(AllocRegression, BufferSteadyChurnIsAllocationFree) {
  Buffer buf(1 << 20);  // 40 x 25 KB high-water
  MsgId next = 0;
  double now = 0.0;
  // Warm to the high-water count so slab and index reach their final size.
  while (buf.fits(stored(next, now).msg)) buf.insert(stored(next++, now));
  std::vector<MsgId> scratch;
  scratch.reserve(64);
  // Steady-state churn: oldest-first eviction + insert + periodic expiry
  // sweeps + in-place updates, exactly zero heap traffic.
  const std::uint64_t allocs = counted([&] {
    for (int i = 0; i < 20000; ++i) {
      now += 0.5;
      buf.erase(buf.oldest());
      buf.insert(stored(next++, now, 50.0 + (i % 700)));
      buf.find(next - 1)->replicas += 1;
      if ((i & 15) == 0) {
        buf.expired_into(now, scratch);
        for (const MsgId id : scratch) buf.erase(id);
      }
    }
  });
  EXPECT_EQ(allocs, 0u) << "slab Buffer churn must not heap-allocate";
}

TEST(AllocRegression, ContactLayerStepLoopStaysAllocationFree) {
  WorldConfig config;
  config.seed = 9;
  World world(config);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  const double side = std::sqrt(120.0 * 150);  // 120 m^2/node at n=150
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < 150; ++i) {
    world.add_node(std::make_unique<mobility::RandomWaypoint>(move),
                   std::make_unique<routing::EpidemicRouter>());
  }
  // Warm-up long enough for the roaming nodes to discover every grid cell.
  for (int i = 0; i < 4000; ++i) world.step();
  constexpr int kSteps = 1000;
  const std::uint64_t allocs = counted([&] {
    for (int i = 0; i < kSteps; ++i) world.step();
  });
  EXPECT_LT(static_cast<double>(allocs) / kSteps, 0.5)
      << "traffic-free step loop regressed to allocating";
}

TEST(AllocRegression, BufferPressureWorkloadStaysNearZeroAllocs) {
  WorldConfig config;
  config.seed = 17;
  config.buffer_bytes = 110 * 1024;  // 4 messages: constant forced drops
  World world(config);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  const double side = std::sqrt(120.0 * 100);
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < 100; ++i) {
    world.add_node(std::make_unique<mobility::RandomWaypoint>(move),
                   std::make_unique<routing::EpidemicRouter>());
  }
  TrafficParams traffic;  // 25 KB packets
  traffic.interval_min = 2.0;  // fast enough to keep every buffer full
  traffic.interval_max = 4.0;
  world.set_traffic(traffic);
  for (int i = 0; i < 4000; ++i) world.step();
  ASSERT_GT(world.metrics().dropped(), 0) << "workload must exercise eviction";
  constexpr int kSteps = 2000;
  const std::uint64_t allocs = counted([&] {
    for (int i = 0; i < kSteps; ++i) world.step();
  });
  // Residual: per-delivery metrics map/accumulator inserts and rare vector
  // growth. The seed store allocated on every insert and every queued
  // transfer — orders of magnitude above this bound.
  EXPECT_LT(static_cast<double>(allocs) / kSteps, 0.5)
      << "traffic-bearing buffer path regressed to allocating";
}

TEST(AllocRegression, ReusedWorldSeedIsNearAllocationFree) {
  // A reseeded run must ride entirely on retained capacity: slab buffers,
  // grid cells, adjacency/connection pools, movement lanes, metrics
  // buckets, traffic generator — the campaign-sweep steady state.
  WorldConfig config;
  config.seed = 23;
  World world(config);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  const double side = std::sqrt(120.0 * 120);
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < 120; ++i) {
    world.add_node(move, std::make_unique<routing::EpidemicRouter>());
  }
  TrafficParams traffic;
  traffic.interval_min = 2.0;
  traffic.interval_max = 4.0;
  world.set_traffic(traffic);
  // Warm seed: reach the allocation high-water mark (slabs, cells, maps),
  // then one throwaway reseed cycle — the first reuse may pay one-time
  // capacity growth (e.g. the connection free-list reaching pool size).
  for (int i = 0; i < 4000; ++i) world.step();
  world.reseed(24);
  for (int i = 0; i < 500; ++i) world.step();

  // A steady-state reseed must be exactly allocation-free.
  const std::uint64_t reseed_allocs = counted([&] { world.reseed(25); });
  EXPECT_EQ(reseed_allocs, 0u) << "World::reseed() must recycle, not allocate";

  // A full reused-world seed (the steps after the reseed) stays at ~0
  // allocs/step. Residual: first-delivery metrics nodes (the map was
  // cleared) and rare container growth past the previous high-water mark.
  constexpr int kSteps = 3000;
  const std::uint64_t run_allocs = counted([&] {
    for (int i = 0; i < kSteps; ++i) world.step();
  });
  EXPECT_LT(static_cast<double>(run_allocs) / kSteps, 0.5)
      << "reused-world seed regressed to allocating";
}

TEST(AllocRegression, MatrixWorkloadReseedIsAllocationFree) {
  // The multi-schedule generator (matrix entries + on-off profile) must
  // keep World::reseed()'s zero-allocation contract: params_ copy-assign
  // reuses vector capacity, schedules/heap resize to the same size.
  WorldConfig config;
  config.seed = 31;
  World world(config);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  const double side = std::sqrt(120.0 * 60);
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < 60; ++i) {
    world.add_node(move, std::make_unique<routing::EpidemicRouter>());
  }
  TrafficParams traffic;
  traffic.interval_min = 2.0;
  traffic.interval_max = 4.0;
  traffic.profile = TrafficProfile::kOnOff;
  traffic.on_s = 60.0;
  traffic.off_s = 30.0;
  TrafficMatrixEntry flow;
  flow.src_count = 30;
  flow.dst_first = 30;
  flow.dst_count = 30;
  flow.interval_min = 2.0;
  flow.interval_max = 4.0;
  flow.weight = 2.0;
  TrafficMatrixEntry back = flow;
  back.src_first = 30;
  back.dst_first = 0;
  back.weight = 1.0;
  traffic.matrix = {flow, back};
  world.set_traffic(traffic);
  for (int i = 0; i < 2000; ++i) world.step();
  world.reseed(32);
  for (int i = 0; i < 500; ++i) world.step();

  const std::uint64_t reseed_allocs = counted([&] { world.reseed(33); });
  EXPECT_EQ(reseed_allocs, 0u)
      << "matrix-workload World::reseed() must recycle, not allocate";
}

TEST(AllocRegression, EerWorldReseedIsAllocationFree) {
  // EER routers hold MI rows shared with their peers' matrices, a MEMD
  // cache and a contact history; Router::reset must drop the rows and keep
  // every buffer, so World::reseed() stays allocation-free.
  WorldConfig config;
  config.seed = 41;
  World world(config);
  mobility::RandomWaypointParams move;
  move.world_min = {0.0, 0.0};
  const double side = std::sqrt(120.0 * 60);
  move.world_max = {side, side};
  move.speed_min = 2.0;
  move.speed_max = 14.0;
  for (int i = 0; i < 60; ++i) {
    world.add_node(move, std::make_unique<routing::EerRouter>(routing::EerParams{}));
  }
  TrafficParams traffic;
  traffic.interval_min = 2.0;
  traffic.interval_max = 4.0;
  world.set_traffic(traffic);
  for (int i = 0; i < 3000; ++i) world.step();
  ASSERT_GT(world.metrics().relayed(), 0);  // MI exchanges and MEMD ran
  world.reseed(42);
  for (int i = 0; i < 1000; ++i) world.step();

  const std::uint64_t reseed_allocs = counted([&] { world.reseed(43); });
  EXPECT_EQ(reseed_allocs, 0u) << "EER World::reseed() must recycle, not allocate";
}

TEST(AllocRegression, ParallelForDispatchIsAllocationFree) {
  // Chunked atomic-counter dispatch: one stack job, no per-task heap
  // closures/futures. Warm the shared pool first (thread creation), build
  // the std::function outside the window, then count a whole dispatch.
  auto& pool = util::ThreadPool::shared();
  std::atomic<std::uint64_t> sum{0};
  const std::function<void(std::size_t, std::size_t)> body =
      [&sum](std::size_t, std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      };
  pool.parallel_for(1000, 4, body);  // warm-up: workers exist afterwards
  sum.store(0);
  const std::uint64_t allocs = counted([&] { pool.parallel_for(1000, 4, body); });
  EXPECT_EQ(sum.load(), 1000ull * 999ull / 2ull);
  EXPECT_EQ(allocs, 0u) << "parallel_for dispatch must not heap-allocate";
}

}  // namespace
}  // namespace dtn::sim
