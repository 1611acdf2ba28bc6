// Shared helpers for the cubist test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "array/aggregate.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "common/rng.h"

namespace cubist::testing {

/// Dense array with the given extents, filled with small random integers
/// (0..9, zero with probability 1 - density). Deterministic in `seed`.
inline DenseArray random_dense(const std::vector<std::int64_t>& extents,
                               double density, std::uint64_t seed) {
  DenseArray array{Shape{extents}};
  Xoshiro256ss rng(seed);
  for (std::int64_t i = 0; i < array.size(); ++i) {
    if (rng.next_double() < density) {
      array[i] = static_cast<Value>(1 + rng.next_below(9));
    }
  }
  return array;
}

/// Dense array whose cell values equal their linear index + 1 (handy for
/// checking exact placements).
inline DenseArray iota_dense(const std::vector<std::int64_t>& extents) {
  DenseArray array{Shape{extents}};
  for (std::int64_t i = 0; i < array.size(); ++i) {
    array[i] = static_cast<Value>(i + 1);
  }
  return array;
}

/// True if a scan over `grid` whose targets aggregate `grid_dims` splits,
/// on the smallest parallel budget (2), into more than one task with at
/// least one pass-2 target: the owner-computes passes are then what a
/// pool-size test exercises, not the inline path.
inline bool splits_with_pass2(const Shape& grid,
                              std::span<const int> grid_dims,
                              std::int64_t work_cells) {
  const ScanSplit split = plan_scan_split(grid, grid_dims, 2, work_cells);
  return split.pass1_tasks + split.pass2_tasks > 1 &&
         std::ranges::any_of(split.pass2, [](std::uint8_t p) { return p; });
}

/// The unit grid of a dense scan: the parent's rows.
inline Shape dense_scan_grid(const Shape& parent) {
  return parent.without_dim(parent.ndim() - 1);
}

}  // namespace cubist::testing
