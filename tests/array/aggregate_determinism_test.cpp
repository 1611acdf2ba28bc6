// Bit-determinism of the owner-computes aggregation kernels: for a fixed
// input, the output bytes must be identical for EVERY thread-pool size,
// because every child cell is written by one task that visits the units
// feeding it in ascending order, i.e. in serial scan order. This is the
// contract that makes CUBIST_THREADS a pure performance knob.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "array/aggregate.h"
#include "common/thread_pool.h"
#include "core/sequential_builder.h"
#include "test_util.h"

namespace cubist {
namespace {

/// Pool sizes the determinism contract is exercised with (the issue's
/// matrix): serial, even, odd/oversubscribed, and whatever the machine has.
std::vector<int> pool_sizes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1, 2, 7, hw == 0 ? 1 : static_cast<int>(hw)};
}

std::vector<int> all_positions(int ndim) {
  std::vector<int> positions;
  for (int pos = 0; pos < ndim; ++pos) positions.push_back(pos);
  return positions;
}

/// Aggregates every single-dimension child of `parent` with a pool of
/// `threads` and returns the children.
template <typename ParentT>
std::vector<DenseArray> children_with_pool(const ParentT& parent,
                                           int threads) {
  ThreadPool pool(threads);
  std::vector<DenseArray> children;
  children.reserve(static_cast<std::size_t>(parent.ndim()));
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  AggregateOptions options;
  options.pool = &pool;
  aggregate_children(parent, targets, options);
  return children;
}

void expect_bit_identical(const std::vector<DenseArray>& expected,
                          const std::vector<DenseArray>& actual,
                          int threads) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t c = 0; c < expected.size(); ++c) {
    ASSERT_EQ(expected[c].size(), actual[c].size());
    EXPECT_EQ(std::memcmp(expected[c].data(), actual[c].data(),
                          static_cast<std::size_t>(expected[c].bytes())),
              0)
        << "child " << c << " differs with " << threads << " threads";
  }
}

TEST(AggregateDeterminismTest, DenseBitIdenticalAcrossPoolSizes) {
  const DenseArray parent = testing::random_dense({48, 48, 48}, 0.6, 101);
  // The shape must be big enough that the scan actually splits —
  // otherwise this test degenerates to checking the inline path.
  const std::vector<int> positions = all_positions(3);
  ASSERT_TRUE(testing::splits_with_pass2(
      testing::dense_scan_grid(parent.shape()), positions, parent.size()));

  const std::vector<DenseArray> reference = children_with_pool(parent, 1);
  for (const int threads : pool_sizes()) {
    expect_bit_identical(reference, children_with_pool(parent, threads),
                         threads);
  }
}

TEST(AggregateDeterminismTest, DenseUnevenExtentsBitIdentical) {
  // Prime-ish extents: task boundaries split the leading and owned
  // dimensions unevenly.
  const DenseArray parent = testing::random_dense({37, 5, 31, 23}, 0.4, 7);
  const std::vector<int> positions = all_positions(4);
  ASSERT_TRUE(testing::splits_with_pass2(
      testing::dense_scan_grid(parent.shape()), positions, parent.size()));

  const std::vector<DenseArray> reference = children_with_pool(parent, 1);
  for (const int threads : pool_sizes()) {
    expect_bit_identical(reference, children_with_pool(parent, threads),
                         threads);
  }
}

TEST(AggregateDeterminismTest, DenseStripedMatchesScalarProjection) {
  // The split kernel against the deliberately scalar, independent
  // project() path — guards against a deterministic-but-wrong split.
  const DenseArray parent = testing::random_dense({48, 48, 48}, 0.5, 55);
  const std::vector<DenseArray> children = children_with_pool(parent, 7);
  for (int pos = 0; pos < 3; ++pos) {
    DenseArray expected{parent.shape().without_dim(pos)};
    std::vector<int> kept;
    for (int d = 0; d < 3; ++d) {
      if (d != pos) kept.push_back(d);
    }
    project(parent, kept, &expected);
    EXPECT_EQ(children[static_cast<std::size_t>(pos)], expected)
        << "pos=" << pos;
  }
}

TEST(AggregateDeterminismTest, SparseBitIdenticalAcrossPoolSizes) {
  const DenseArray dense = testing::random_dense({64, 40, 33}, 0.4, 23);
  const SparseArray parent = SparseArray::from_dense(dense, {8, 8, 8});
  const std::vector<int> positions = all_positions(3);
  ASSERT_TRUE(testing::splits_with_pass2(parent.chunk_grid(), positions,
                                         parent.nnz()));

  const std::vector<DenseArray> reference = children_with_pool(parent, 1);
  for (const int threads : pool_sizes()) {
    expect_bit_identical(reference, children_with_pool(parent, threads),
                         threads);
  }
}

TEST(AggregateDeterminismTest, SparseUnevenBoundaryChunksBitIdentical) {
  // Chunk extents that do not divide the array: boundary chunks walk
  // their own clipped split tables while interior chunks share the full
  // ones, in the same split scan.
  const DenseArray dense = testing::random_dense({51, 29, 38}, 0.45, 91);
  const SparseArray parent = SparseArray::from_dense(dense, {8, 8, 8});
  const std::vector<int> positions = all_positions(3);
  ASSERT_TRUE(testing::splits_with_pass2(parent.chunk_grid(), positions,
                                         parent.nnz()));

  const std::vector<DenseArray> reference = children_with_pool(parent, 1);
  for (const int threads : pool_sizes()) {
    expect_bit_identical(reference, children_with_pool(parent, threads),
                         threads);
  }
  // And the split sparse kernel agrees exactly with the dense kernel.
  const std::vector<DenseArray> from_dense = children_with_pool(dense, 1);
  expect_bit_identical(from_dense, reference, 1);
}

TEST(AggregateDeterminismTest, FullCubeBitIdenticalAcrossPoolSizes) {
  // End to end: the whole sequential cube, every view, byte for byte.
  const DenseArray root = testing::random_dense({48, 32, 16}, 0.6, 3);
  ThreadPool serial(1);
  AggregateOptions serial_options;
  serial_options.pool = &serial;
  const CubeResult reference = build_cube_sequential(
      root, nullptr, AggregateOp::kSum, serial_options);
  for (const int threads : pool_sizes()) {
    ThreadPool pool(threads);
    AggregateOptions options;
    options.pool = &pool;
    const CubeResult cube =
        build_cube_sequential(root, nullptr, AggregateOp::kSum, options);
    for (const DimSet view : reference.stored_views()) {
      const DenseArray& expected = reference.view(view);
      const DenseArray& actual = cube.view(view);
      ASSERT_EQ(expected.size(), actual.size());
      EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                            static_cast<std::size_t>(expected.bytes())),
                0)
          << "view " << view.to_string() << " differs with " << threads
          << " threads";
    }
  }
}

TEST(AggregateDeterminismTest, ScanSplitDependsOnlyOnShapeAndBudget) {
  // The split takes the thread budget but no pool: the same arguments
  // always give the same split, and pass 2 holds exactly the targets that
  // aggregate a leading (pass-1 split) dimension.
  const Shape grid{{48, 48}};  // rows of a 48x48x48 dense parent
  const std::vector<int> positions = all_positions(3);
  const std::int64_t work = 48 * 48 * 48;
  const ScanSplit split = plan_scan_split(grid, positions, 4, work);
  const ScanSplit again = plan_scan_split(grid, positions, 4, work);
  EXPECT_EQ(split.lead_end, again.lead_end);
  EXPECT_EQ(split.owned_end, again.owned_end);
  EXPECT_EQ(split.pass1_tasks, again.pass1_tasks);
  EXPECT_EQ(split.pass2_tasks, again.pass2_tasks);
  EXPECT_EQ(split.pass2, again.pass2);
  EXPECT_EQ(split.lead_end, 1);
  EXPECT_EQ(split.owned_end, 2);
  EXPECT_EQ(split.pass1_tasks, kTasksPerWorker * 4);
  EXPECT_EQ(split.pass2_tasks, kTasksPerWorker * 4);
  EXPECT_EQ(split.pass2, (std::vector<std::uint8_t>{1, 0, 0}));

  // Budget 1 and small scans run as one inline pass.
  EXPECT_EQ(plan_scan_split(grid, positions, 1, work).lead_end, 0);
  EXPECT_EQ(plan_scan_split(Shape{{4, 4}}, positions, 4, 64).lead_end, 0);
  // Pass-2 tasks are capped by the owned dimensions' extent.
  const ScanSplit narrow =
      plan_scan_split(Shape{{2, 3, 5}}, all_positions(3), 4, work);
  EXPECT_EQ(narrow.lead_end, 3);
  EXPECT_EQ(narrow.pass1_tasks, 0);
  EXPECT_EQ(narrow.pass2_tasks, 1);
}

// --- order-sensitive data: values whose combine result depends on the
// --- order of the contributions, so a reordered reduction shows ---

constexpr AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kCount,
                                   AggregateOp::kMin, AggregateOp::kMax};

/// A fractional value of random sign, magnitude log-uniform in [1e-3, 1e3].
Value fractional(Xoshiro256ss& rng) {
  const Value magnitude = std::pow(10.0, -3.0 + 6.0 * rng.next_double());
  return rng.next_below(2) == 0 ? -magnitude : magnitude;
}

/// +0.0 or -0.0: MIN/MAX keep whichever zero they meet first.
Value signed_zero(Xoshiro256ss& rng) {
  return rng.next_below(2) == 0 ? -0.0 : 0.0;
}

/// Order-sensitive parent cells. A fraction `1 - density` of the cells is
/// 0 (empty at input level). With `zero_columns`, every third innermost
/// coordinate holds only signed zeros, so MIN/MAX of those child cells
/// depend on which zero comes first.
DenseArray order_sensitive_dense(const std::vector<std::int64_t>& extents,
                                 double density, bool zero_columns,
                                 std::uint64_t seed) {
  DenseArray array{Shape{extents}};
  const std::int64_t inner = extents.back();
  Xoshiro256ss rng(seed);
  for (std::int64_t i = 0; i < array.size(); ++i) {
    if (zero_columns && i % inner % 3 == 0) {
      array[i] = signed_zero(rng);
    } else if (rng.next_double() < density) {
      array[i] = fractional(rng);
    }
  }
  return array;
}

/// Children that already hold values (the kernels combine into them): per
/// cell the identity, a signed zero or a fractional value.
std::vector<DenseArray> started_children(const Shape& parent, AggregateOp op,
                                         std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<DenseArray> children;
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    children.emplace_back(parent.without_dim(pos));
    DenseArray& child = children.back();
    for (std::int64_t i = 0; i < child.size(); ++i) {
      const std::uint64_t kind = rng.next_below(3);
      child[i] = kind == 0   ? identity_of(op)
                 : kind == 1 ? signed_zero(rng)
                             : fractional(rng);
    }
  }
  return children;
}

/// Child index of parent cell `idx` with dimension `pos` removed.
std::int64_t child_index(const Shape& child, const std::int64_t* idx,
                         int ndim, int pos) {
  std::int64_t linear = 0;
  for (int d = 0, c = 0; d < ndim; ++d) {
    if (d == pos) continue;
    linear += idx[d] * child.stride(c++);
  }
  return linear;
}

/// The serial-scan-order result of a dense scan, written out plainly: per
/// row, the innermost target gets the row's reduction (from the identity,
/// left to right) and every other target gets the row's cells, rows in
/// row-major order. Input-level non-SUM scans map 0 to the identity first.
std::vector<DenseArray> serial_reference(const DenseArray& parent,
                                         std::vector<DenseArray> children,
                                         AggregateOp op, bool input_level) {
  const int m = parent.ndim();
  const std::int64_t inner = parent.shape().extent(m - 1);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(m));
  for (std::int64_t row = 0; row < parent.size() / inner; ++row) {
    Value reduced = identity_of(op);
    for (std::int64_t x = 0; x < inner; ++x) {
      const std::int64_t linear = row * inner + x;
      Value v = parent[linear];
      if (input_level && op != AggregateOp::kSum) {
        v = v == Value{0} ? identity_of(op) : contribution_of(op, v);
      }
      combine(op, reduced, v);
      parent.shape().unravel(linear, idx.data());
      for (int pos = 0; pos + 1 < m; ++pos) {
        DenseArray& child = children[static_cast<std::size_t>(pos)];
        combine(op, child[child_index(child.shape(), idx.data(), m, pos)], v);
      }
    }
    DenseArray& last = children.back();
    combine(op, last[child_index(last.shape(), idx.data(), m, m - 1)],
            reduced);
  }
  return children;
}

/// The serial-scan-order result of a sparse scan: nonzeros in chunk order.
std::vector<DenseArray> serial_reference(const SparseArray& parent,
                                         std::vector<DenseArray> children,
                                         AggregateOp op, bool) {
  const int m = parent.ndim();
  parent.for_each_nonzero([&](const std::int64_t* idx, Value value) {
    for (int pos = 0; pos < m; ++pos) {
      DenseArray& child = children[static_cast<std::size_t>(pos)];
      combine(op, child[child_index(child.shape(), idx, m, pos)],
              contribution_of(op, value));
    }
  });
  return children;
}

/// Scans `parent` into started children on every pool size; each result
/// must equal the serial-order reference byte for byte.
template <typename ParentT>
void expect_serial_order_on_every_pool(const ParentT& parent, AggregateOp op,
                                       bool input_level) {
  const std::vector<DenseArray> start =
      started_children(parent.shape(), op, 977);
  const std::vector<DenseArray> expected =
      serial_reference(parent, start, op, input_level);
  for (const int threads : pool_sizes()) {
    ThreadPool pool(threads);
    std::vector<DenseArray> children = start;
    std::vector<AggregationTarget> targets;
    for (int pos = 0; pos < parent.ndim(); ++pos) {
      targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
    }
    aggregate_children(parent, targets,
                       {.pool = &pool, .op = op, .input_level = input_level});
    expect_bit_identical(expected, children, threads);
  }
}

class AggregateOrderDeterminismTest
    : public ::testing::TestWithParam<AggregateOp> {};

TEST_P(AggregateOrderDeterminismTest, DenseInputLevelSerialOrderOnEveryPool) {
  const DenseArray parent =
      order_sensitive_dense({6, 5, 30, 24}, 0.7, /*zero_columns=*/false, 211);
  ASSERT_TRUE(testing::splits_with_pass2(
      testing::dense_scan_grid(parent.shape()), all_positions(4),
      parent.size()));
  expect_serial_order_on_every_pool(parent, GetParam(), /*input_level=*/true);
}

TEST_P(AggregateOrderDeterminismTest, DenseViewLevelSerialOrderOnEveryPool) {
  // View level: signed zeros are values, not empty cells.
  const DenseArray parent =
      order_sensitive_dense({40, 36, 24}, 0.8, /*zero_columns=*/true, 223);
  ASSERT_TRUE(testing::splits_with_pass2(
      testing::dense_scan_grid(parent.shape()), all_positions(3),
      parent.size()));
  expect_serial_order_on_every_pool(parent, GetParam(),
                                    /*input_level=*/false);
}

TEST_P(AggregateOrderDeterminismTest, SparseSerialOrderOnEveryPool) {
  // 8^3 chunks over 45x37x26: clipped boundary chunks in every dimension.
  const DenseArray dense =
      order_sensitive_dense({45, 37, 26}, 0.6, /*zero_columns=*/false, 227);
  const SparseArray parent = SparseArray::from_dense(dense, {8, 8, 8});
  ASSERT_TRUE(testing::splits_with_pass2(parent.chunk_grid(),
                                         all_positions(3), parent.nnz()));
  expect_serial_order_on_every_pool(parent, GetParam(), /*input_level=*/true);
}

INSTANTIATE_TEST_SUITE_P(Ops, AggregateOrderDeterminismTest,
                         ::testing::ValuesIn(kAllOps),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

}  // namespace
}  // namespace cubist
