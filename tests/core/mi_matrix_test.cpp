#include "core/mi_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace dtn::core {
namespace {

TEST(MiMatrix, InitialState) {
  const MiMatrix mi(4);
  EXPECT_EQ(mi.size(), 4);
  for (NodeIdx i = 0; i < 4; ++i) {
    for (NodeIdx j = 0; j < 4; ++j) {
      if (i == j) {
        EXPECT_DOUBLE_EQ(mi.get(i, j), 0.0);
      } else {
        EXPECT_TRUE(std::isinf(mi.get(i, j)));
      }
    }
  }
}

TEST(MiMatrix, SetEntryStampsRow) {
  MiMatrix mi(3);
  mi.set_entry(0, 1, 42.0, 100.0);
  EXPECT_DOUBLE_EQ(mi.get(0, 1), 42.0);
  EXPECT_DOUBLE_EQ(mi.row_time(0), 100.0);
  EXPECT_TRUE(std::isinf(mi.get(1, 0)));  // asymmetric until u_1 updates
}

TEST(MiMatrix, DiagonalImmutable) {
  MiMatrix mi(3);
  mi.set_entry(1, 1, 99.0, 5.0);
  EXPECT_DOUBLE_EQ(mi.get(1, 1), 0.0);
}

TEST(MiMatrix, RowTimeKeepsMax) {
  MiMatrix mi(3);
  mi.set_entry(0, 1, 10.0, 100.0);
  mi.set_entry(0, 2, 20.0, 50.0);  // older stamp must not regress row time
  EXPECT_DOUBLE_EQ(mi.row_time(0), 100.0);
}

TEST(MiMatrix, MergeTakesFresherRows) {
  MiMatrix a(3);
  MiMatrix b(3);
  a.set_entry(0, 1, 11.0, 10.0);
  b.set_entry(0, 1, 22.0, 20.0);  // b's row 0 is fresher
  b.set_entry(1, 2, 33.0, 5.0);
  const int copied = a.merge_from(b);
  EXPECT_EQ(copied, 2);  // rows 0 and 1
  EXPECT_DOUBLE_EQ(a.get(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(a.get(1, 2), 33.0);
}

TEST(MiMatrix, MergeSkipsStalerRows) {
  MiMatrix a(3);
  MiMatrix b(3);
  a.set_entry(0, 1, 11.0, 100.0);
  b.set_entry(0, 1, 22.0, 50.0);
  EXPECT_EQ(a.merge_from(b), 0);
  EXPECT_DOUBLE_EQ(a.get(0, 1), 11.0);
}

TEST(MiMatrix, BidirectionalMergeConverges) {
  MiMatrix a(4);
  MiMatrix b(4);
  a.set_entry(0, 1, 10.0, 1.0);
  a.set_entry(2, 3, 30.0, 3.0);
  b.set_entry(1, 2, 20.0, 2.0);
  a.merge_from(b);
  b.merge_from(a);
  for (NodeIdx i = 0; i < 4; ++i) {
    for (NodeIdx j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(a.get(i, j), b.get(i, j)) << i << "," << j;
    }
    EXPECT_DOUBLE_EQ(a.row_time(i), b.row_time(i));
  }
}

TEST(MiMatrix, MergeIsIdempotent) {
  MiMatrix a(3);
  MiMatrix b(3);
  b.set_entry(1, 0, 44.0, 9.0);
  a.merge_from(b);
  EXPECT_EQ(a.merge_from(b), 0);  // second merge copies nothing
}

TEST(MiMatrix, VersionBumpsOnMutation) {
  MiMatrix a(3);
  const auto v0 = a.version();
  a.set_entry(0, 1, 5.0, 1.0);
  EXPECT_GT(a.version(), v0);
  MiMatrix b(3);
  b.set_entry(1, 2, 6.0, 2.0);
  const auto v1 = a.version();
  a.merge_from(b);
  EXPECT_GT(a.version(), v1);
  const auto v2 = a.version();
  a.merge_from(b);  // no-op merge must not bump
  EXPECT_EQ(a.version(), v2);
}

TEST(MiMatrix, RowBytes) {
  const MiMatrix mi(10);
  EXPECT_EQ(mi.row_bytes(), 10 * 8 + 8);
}

TEST(MiMatrix, ThreeWayGossipPropagatesRows) {
  // a knows row 0, c knows row 2; b relays between them.
  MiMatrix a(3);
  MiMatrix b(3);
  MiMatrix c(3);
  a.set_entry(0, 1, 10.0, 1.0);
  c.set_entry(2, 1, 20.0, 1.0);
  b.merge_from(a);
  c.merge_from(b);
  EXPECT_DOUBLE_EQ(c.get(0, 1), 10.0);  // a's row reached c through b
}

TEST(MiMatrix, UnknownRowHasNoStorage) {
  MiMatrix mi(3);
  EXPECT_EQ(mi.row_data(1), nullptr);
  mi.set_entry(1, 2, 7.0, 1.0);
  ASSERT_NE(mi.row_data(1), nullptr);
  EXPECT_DOUBLE_EQ(mi.row_data(1)[1], 0.0);  // diagonal of a fresh row
  EXPECT_TRUE(std::isinf(mi.row_data(1)[0]));
  mi.reset();
  EXPECT_EQ(mi.row_data(1), nullptr);
  EXPECT_EQ(mi.version(), 0u);
}

TEST(MiMatrix, MergeSharesRowsAndWriteCopies) {
  MiMatrix a(3);
  MiMatrix b(3);
  a.set_entry(0, 1, 10.0, 1.0);
  b.merge_from(a);
  EXPECT_EQ(a.row_data(0), b.row_data(0));  // one buffer, two handles
  a.set_entry(0, 2, 20.0, 2.0);             // owner writes: clone first
  EXPECT_NE(a.row_data(0), b.row_data(0));
  EXPECT_TRUE(std::isinf(b.get(0, 2)));
  EXPECT_DOUBLE_EQ(a.get(0, 2), 20.0);
  const double* sole = a.row_data(0);
  a.set_entry(0, 1, 11.0, 3.0);  // sole holder: written in place
  EXPECT_EQ(a.row_data(0), sole);
}

// The dense n×n matrix the shared-row layout replaced, as a reference
// model: same get / set_entry / merge_from / reset / version semantics.
struct DenseMi {
  explicit DenseMi(NodeIdx n_) : n(n_) { reset(); }
  void reset() {
    data.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                MiMatrix::kUnknown);
    for (NodeIdx i = 0; i < n; ++i) data[static_cast<std::size_t>(i * n + i)] = 0.0;
    times.assign(static_cast<std::size_t>(n), -std::numeric_limits<double>::infinity());
    version = 0;
  }
  void set_entry(NodeIdx i, NodeIdx j, double v, double t) {
    if (i == j) return;
    data[static_cast<std::size_t>(i * n + j)] = v;
    times[static_cast<std::size_t>(i)] = std::max(times[static_cast<std::size_t>(i)], t);
    ++version;
  }
  int merge_from(const DenseMi& other) {
    int copied = 0;
    for (NodeIdx i = 0; i < n; ++i) {
      if (other.times[static_cast<std::size_t>(i)] > times[static_cast<std::size_t>(i)]) {
        std::copy_n(other.data.begin() + i * n, n, data.begin() + i * n);
        times[static_cast<std::size_t>(i)] = other.times[static_cast<std::size_t>(i)];
        ++copied;
      }
    }
    if (copied > 0) ++version;
    return copied;
  }
  NodeIdx n;
  std::vector<double> data;
  std::vector<double> times;
  std::uint64_t version = 0;
};

void expect_matches(const MiMatrix& mi, const DenseMi& ref, int step, int which) {
  ASSERT_EQ(mi.version(), ref.version) << "step " << step << " matrix " << which;
  for (NodeIdx i = 0; i < ref.n; ++i) {
    ASSERT_EQ(mi.row_time(i), ref.times[static_cast<std::size_t>(i)])
        << "step " << step << " matrix " << which << " row " << i;
    for (NodeIdx j = 0; j < ref.n; ++j) {
      ASSERT_EQ(mi.get(i, j), ref.data[static_cast<std::size_t>(i * ref.n + j)])
          << "step " << step << " matrix " << which << " (" << i << "," << j << ")";
    }
  }
}

// Randomised set_entry / merge_from / copy / reset sequences over several
// matrices that share rows: every matrix must read exactly like its dense
// model, merges must return the dense counts, and a write through one
// matrix must never show through a row view another matrix handed out.
TEST(MiMatrix, SharedRowsMatchDenseModel) {
  constexpr NodeIdx kN = 6;
  constexpr int kMatrices = 4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Pcg32 rng(seed, 77);
    std::vector<MiMatrix> shared(kMatrices, MiMatrix(kN));
    std::vector<DenseMi> dense(kMatrices, DenseMi(kN));
    double clock = 0.0;
    for (int step = 0; step < 600; ++step) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, kMatrices - 1));
      const auto b = static_cast<std::size_t>(rng.uniform_int(0, kMatrices - 1));
      const double op = rng.next_double();
      if (op < 0.45) {
        const auto i = static_cast<NodeIdx>(rng.uniform_int(0, kN - 1));
        const auto j = static_cast<NodeIdx>(rng.uniform_int(0, kN - 1));
        const double v = rng.uniform(1.0, 100.0);
        // Mostly advancing stamps, sometimes an older one.
        clock += rng.uniform(0.0, 3.0);
        const double t = rng.bernoulli(0.15) ? clock - 5.0 : clock;
        // Views other matrices hand out must not move under this write.
        std::vector<std::pair<const double*, std::vector<double>>> views;
        for (std::size_t m = 0; m < shared.size(); ++m) {
          if (m == a || shared[m].row_data(i) == nullptr) continue;
          const double* row = shared[m].row_data(i);
          views.emplace_back(row, std::vector<double>(row, row + kN));
        }
        shared[a].set_entry(i, j, v, t);
        dense[a].set_entry(i, j, v, t);
        for (const auto& [row, before] : views) {
          for (NodeIdx k = 0; k < kN; ++k) {
            ASSERT_EQ(row[k], before[static_cast<std::size_t>(k)]) << "step " << step;
          }
        }
      } else if (op < 0.85) {
        ASSERT_EQ(shared[a].merge_from(shared[b]), dense[a].merge_from(dense[b]))
            << "step " << step;
      } else if (op < 0.95) {
        shared[a] = MiMatrix(shared[b]);
        dense[a] = dense[b];
      } else {
        shared[a].reset();
        dense[a].reset();
      }
      for (int m = 0; m < kMatrices; ++m) {
        expect_matches(shared[static_cast<std::size_t>(m)],
                       dense[static_cast<std::size_t>(m)], step, m);
      }
    }
  }
}

}  // namespace
}  // namespace dtn::core
