// Meeting-interval matrix MI (paper Sec. III-B2): an n×n matrix of average
// meeting intervals I_ij, where row i is owned and updated by node u_i.
// Each row carries a last-update timestamp; when two nodes meet they
// exchange only the rows the other side has staler (paper footnote 1),
// which is also what the control-overhead accounting charges.
//
// Storage is shared, copy-on-write rows. A matrix holds one
// reference-counted handle per row plus that row's timestamp:
//   - a row nobody has written yet is a null handle: it stores nothing,
//     reads +inf off the diagonal and 0 on it;
//   - merge_from copies handles, not n doubles, so after an exchange both
//     matrices point at the same immutable row buffer;
//   - set_entry writes in place when this matrix is the row's only holder
//     and clones the row first when another matrix still shares it.
// Each row version is a *sparse row* of sparse_row_size(n) doubles: the n
// entries, then column_words(n) 64-bit words whose bit j is set iff j is
// off the diagonal and entry j is not +inf. The words sit in the double
// array as bit patterns (std::bit_cast), so a row and its column index are
// one copy-on-write allocation: set_entry keeps the index current, clones
// copy it and merges share it with the handle. Dijkstra (core/dijkstra.hpp)
// walks only the columns a row's index holds.
// A world of n nodes thus costs n handles per node plus the row versions
// still alive. Handles are std::shared_ptr, so matrices may be copied and
// destroyed on any thread; a row is only ever written by the matrix that
// holds its sole handle.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace dtn::core {

using NodeIdx = std::int32_t;

/// Column-index words a sparse row of n entries carries after them.
constexpr std::size_t column_words(NodeIdx n) {
  return (static_cast<std::size_t>(n) + 63) / 64;
}
constexpr std::size_t sparse_row_size(NodeIdx n) {
  return static_cast<std::size_t>(n) + column_words(n);
}

/// Whether column j is in the index of a sparse row of n entries.
inline bool has_column(const double* row, NodeIdx n, NodeIdx j) {
  const auto word = std::bit_cast<std::uint64_t>(row[n + j / 64]);
  return ((word >> (j % 64)) & 1U) != 0;
}

/// Re-derives column j's index bit from its entry (j off the diagonal).
void index_column(double* row, NodeIdx n, NodeIdx j);

class MiMatrix {
 public:
  static constexpr double kUnknown = std::numeric_limits<double>::infinity();

  /// All rows unknown. O(n): no row storage until a row is written.
  explicit MiMatrix(NodeIdx n);

  /// Restores the just-constructed state (every row unknown and never
  /// updated, version rewound). Releases this matrix's row handles but
  /// keeps the handle and timestamp arrays, so it allocates nothing —
  /// Router::reset support for cross-run reuse.
  void reset();

  [[nodiscard]] NodeIdx size() const noexcept { return n_; }

  /// I_ij; 0 on the diagonal, kUnknown when no information yet.
  [[nodiscard]] double get(NodeIdx i, NodeIdx j) const;

  /// Updates one entry of row `i` (the owner's row) and stamps the row with
  /// time t. Only the row owner calls this with i == its own id.
  void set_entry(NodeIdx i, NodeIdx j, double avg_interval, double t);

  [[nodiscard]] double row_time(NodeIdx i) const {
    return row_times_.at(static_cast<std::size_t>(i));
  }

  /// Takes every row the `other` matrix has fresher, by sharing its
  /// handle. Returns the number of rows taken (the unit the routers
  /// convert into control bytes).
  int merge_from(const MiMatrix& other);

  /// Bytes one row occupies on the air: n doubles + a timestamp.
  [[nodiscard]] std::int64_t row_bytes() const noexcept {
    return static_cast<std::int64_t>(n_) * 8 + 8;
  }

  /// Monotone counter bumped on every mutation; lets callers cache values
  /// derived from the matrix (e.g. MEMD vectors) and detect staleness.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Row i as a sparse row (what Dijkstra reads), or nullptr while row i is
  /// unknown. The pointer stays valid until this matrix next writes row i,
  /// merges, resets or is destroyed.
  [[nodiscard]] const double* row_data(NodeIdx i) const {
    return rows_[static_cast<std::size_t>(i)].get();
  }

 private:
  NodeIdx n_;
  std::vector<std::shared_ptr<double[]>> rows_;  // null = unknown row
  std::vector<double> row_times_;                // -inf = never updated
  std::uint64_t version_ = 0;
};

}  // namespace dtn::core
