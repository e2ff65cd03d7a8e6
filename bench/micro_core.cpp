// Micro-benchmarks for the paper's estimator kernels and the simulator's
// hot paths: EEV / EMD / ENEC evaluation, MI row merging, MD + Dijkstra
// (MEMD), and spatial-grid contact detection. These are the per-contact
// costs that determine how large a network the protocols can run on.
#include <benchmark/benchmark.h>

#include "core/community.hpp"
#include "core/contact_history.hpp"
#include "core/dijkstra.hpp"
#include "core/estimators.hpp"
#include "core/md_builder.hpp"
#include "core/mi_matrix.hpp"
#include "geo/spatial_grid.hpp"
#include "util/rng.hpp"

namespace {

using namespace dtn;

core::ContactHistory make_history(int peers, int contacts_per_peer,
                                  std::uint64_t seed = 7) {
  util::Pcg32 rng(seed, 1);
  core::ContactHistory h(32);
  for (int p = 1; p <= peers; ++p) {
    double t = 0.0;
    for (int k = 0; k < contacts_per_peer; ++k) {
      t += rng.uniform(10.0, 120.0);
      h.record_contact(p, t);
    }
  }
  return h;
}

void BM_EevEvaluation(benchmark::State& state) {
  const int peers = static_cast<int>(state.range(0));
  const core::ContactHistory h = make_history(peers, 24);
  double t = 4000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::expected_encounter_value(h, t, 336.0));
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * peers);
}
BENCHMARK(BM_EevEvaluation)->Arg(40)->Arg(120)->Arg(240);

void BM_EmdEvaluation(benchmark::State& state) {
  util::Pcg32 rng(3, 3);
  std::vector<double> window;
  for (int i = 0; i < 32; ++i) window.push_back(rng.uniform(10.0, 200.0));
  double elapsed = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::expected_meeting_delay(window, elapsed));
    elapsed = elapsed > 300.0 ? 0.0 : elapsed + 1.0;
  }
}
BENCHMARK(BM_EmdEvaluation);

void BM_EnecEvaluation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<int> cid(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) cid[static_cast<std::size_t>(v)] = v % 4;
  const core::CommunityTable table(cid);
  const core::ContactHistory h = make_history(n - 1, 24);
  double t = 4000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::expected_encountering_communities(h, table, 0, t, 336.0));
    t += 1.0;
  }
}
BENCHMARK(BM_EnecEvaluation)->Arg(40)->Arg(120)->Arg(240);

void BM_MiMerge(benchmark::State& state) {
  const auto n = static_cast<core::NodeIdx>(state.range(0));
  util::Pcg32 rng(11, 5);
  core::MiMatrix a(n);
  core::MiMatrix b(n);
  for (core::NodeIdx i = 0; i < n; ++i) {
    for (core::NodeIdx j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.3)) {
        a.set_entry(i, j, rng.uniform(10.0, 500.0), rng.uniform(0.0, 1000.0));
        b.set_entry(i, j, rng.uniform(10.0, 500.0), rng.uniform(0.0, 1000.0));
      }
    }
  }
  for (auto _ : state) {
    core::MiMatrix copy = a;
    benchmark::DoNotOptimize(copy.merge_from(b));
  }
}
BENCHMARK(BM_MiMerge)->Arg(40)->Arg(120)->Arg(240);

void BM_MemdRebuild(benchmark::State& state) {
  const auto n = static_cast<core::NodeIdx>(state.range(0));
  util::Pcg32 rng(13, 7);
  core::MiMatrix mi(n);
  for (core::NodeIdx i = 0; i < n; ++i) {
    for (core::NodeIdx j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.4)) {
        mi.set_entry(i, j, rng.uniform(10.0, 500.0), 1.0);
      }
    }
  }
  const core::ContactHistory h = make_history(n - 1, 24);
  core::MemdCache cache;
  double t = 4000.0;
  for (auto _ : state) {
    // Bump an entry so the cache must rebuild its own row + rerun Dijkstra —
    // the steady-state per-contact cost.
    mi.set_entry(0, 1 + static_cast<core::NodeIdx>(state.iterations() % (n - 2)),
                 50.0, t);
    benchmark::DoNotOptimize(cache.memd(mi, h, 0, n - 1, t));
    t += 1.0;
  }
}
BENCHMARK(BM_MemdRebuild)->Arg(40)->Arg(120)->Arg(240);

void BM_DijkstraDense(benchmark::State& state) {
  const auto n = static_cast<core::NodeIdx>(state.range(0));
  util::Pcg32 rng(17, 9);
  std::vector<double> m(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                        std::numeric_limits<double>::infinity());
  for (core::NodeIdx i = 0; i < n; ++i) {
    m[static_cast<std::size_t>(i) * n + i] = 0.0;
    for (core::NodeIdx j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(0.4)) {
        m[static_cast<std::size_t>(i) * n + j] = rng.uniform(1.0, 100.0);
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::dijkstra_dense(m, n, 0));
  }
}
BENCHMARK(BM_DijkstraDense)->Arg(40)->Arg(120)->Arg(240);

void BM_SpatialGridStep(benchmark::State& state) {
  // One full contact-detection step: rebuild the grid + enumerate pairs.
  const int n = static_cast<int>(state.range(0));
  util::Pcg32 rng(19, 11);
  std::vector<geo::Vec2> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 4000.0), rng.uniform(0.0, 3000.0)});
  }
  geo::SpatialGrid grid(10.0);
  for (auto _ : state) {
    grid.clear();
    for (int i = 0; i < n; ++i) grid.insert(i, pts[static_cast<std::size_t>(i)]);
    benchmark::DoNotOptimize(grid.all_pairs(10.0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpatialGridStep)->Arg(40)->Arg(120)->Arg(240);

void BM_ContactHistoryRecord(benchmark::State& state) {
  core::ContactHistory h(32);
  util::Pcg32 rng(23, 13);
  double t = 0.0;
  for (auto _ : state) {
    t += rng.uniform(1.0, 50.0);
    h.record_contact(static_cast<core::NodeIdx>(rng.uniform_int(0, 239)), t);
  }
}
BENCHMARK(BM_ContactHistoryRecord);

}  // namespace

BENCHMARK_MAIN();
