#include "core/mi_matrix.hpp"

#include <algorithm>
#include <cassert>

namespace dtn::core {

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
  const auto n = static_cast<std::size_t>(n_);
  auto& row = rows_[static_cast<std::size_t>(i)];
  if (row == nullptr) {
    row = std::make_shared<double[]>(n, kUnknown);
    row[static_cast<std::size_t>(i)] = 0.0;
  } else if (row.use_count() > 1) {
    // Copy-on-write: another matrix still reads the current version.
    auto copy = std::make_shared_for_overwrite<double[]>(n);
    std::copy_n(row.get(), n, copy.get());
    row = std::move(copy);
  }
  row[static_cast<std::size_t>(j)] = avg_interval;
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
