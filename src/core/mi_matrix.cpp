#include "core/mi_matrix.hpp"

#include <algorithm>
#include <cassert>

namespace dtn::core {

void index_column(double* row, NodeIdx n, NodeIdx j) {
  double& slot = row[n + j / 64];
  const std::uint64_t bit = std::uint64_t{1} << (j % 64);
  const auto word = std::bit_cast<std::uint64_t>(slot);
  slot = std::bit_cast<double>(row[j] != MiMatrix::kUnknown ? word | bit : word & ~bit);
}

MiMatrix::MiMatrix(NodeIdx n)
    : n_(n), rows_(static_cast<std::size_t>(n)),
      row_times_(static_cast<std::size_t>(n), -std::numeric_limits<double>::infinity()) {}

void MiMatrix::reset() {
  std::fill(rows_.begin(), rows_.end(), nullptr);
  std::fill(row_times_.begin(), row_times_.end(),
            -std::numeric_limits<double>::infinity());
  version_ = 0;
}

double MiMatrix::get(NodeIdx i, NodeIdx j) const {
  assert(i >= 0 && i < n_ && j >= 0 && j < n_);
  const double* row = row_data(i);
  if (row == nullptr) return i == j ? 0.0 : kUnknown;
  return row[static_cast<std::size_t>(j)];
}

void MiMatrix::set_entry(NodeIdx i, NodeIdx j, double avg_interval, double t) {
  assert(i >= 0 && i < n_ && j >= 0 && j < n_);
  if (i == j) return;  // diagonal fixed at 0
  const std::size_t size = sparse_row_size(n_);
  auto& row = rows_[static_cast<std::size_t>(i)];
  if (row == nullptr) {
    row = std::make_shared_for_overwrite<double[]>(size);
    std::fill_n(row.get(), n_, kUnknown);
    row[static_cast<std::size_t>(i)] = 0.0;
    std::fill(row.get() + n_, row.get() + size, 0.0);  // empty column index
  } else if (row.use_count() > 1) {
    // Copy-on-write: another matrix still reads the current version.
    auto copy = std::make_shared_for_overwrite<double[]>(size);
    std::copy_n(row.get(), size, copy.get());
    row = std::move(copy);
  }
  row[static_cast<std::size_t>(j)] = avg_interval;
  index_column(row.get(), n_, j);
  row_times_[static_cast<std::size_t>(i)] =
      std::max(row_times_[static_cast<std::size_t>(i)], t);
  ++version_;
}

int MiMatrix::merge_from(const MiMatrix& other) {
  assert(other.n_ == n_);
  int copied = 0;
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    if (other.row_times_[row] > row_times_[row]) {
      rows_[row] = other.rows_[row];
      row_times_[row] = other.row_times_[row];
      ++copied;
    }
  }
  if (copied > 0) ++version_;
  return copied;
}

}  // namespace dtn::core
