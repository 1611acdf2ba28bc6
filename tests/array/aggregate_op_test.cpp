#include "array/aggregate_op.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "array/aggregate.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "test_util.h"

namespace cubist {
namespace {

constexpr AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kCount,
                                   AggregateOp::kMin, AggregateOp::kMax};

/// Reference: aggregate `parent` (raw input semantics) along `pos` under
/// `op` with a plain loop over non-empty cells.
DenseArray brute_force_op(const DenseArray& parent, int pos, AggregateOp op) {
  DenseArray out{parent.shape().without_dim(pos)};
  fill_identity(op, out);
  const int m = parent.ndim();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(m));
  std::vector<std::int64_t> child_idx;
  for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
    if (parent[linear] == Value{0}) continue;  // empty input cell
    parent.shape().unravel(linear, idx.data());
    child_idx.clear();
    for (int d = 0; d < m; ++d) {
      if (d != pos) child_idx.push_back(idx[d]);
    }
    combine(op, out.at(child_idx), contribution_of(op, parent[linear]));
  }
  finalize_view(op, out);
  return out;
}

TEST(AggregateOpTest, ToStringNames) {
  EXPECT_EQ(to_string(AggregateOp::kSum), "sum");
  EXPECT_EQ(to_string(AggregateOp::kCount), "count");
  EXPECT_EQ(to_string(AggregateOp::kMin), "min");
  EXPECT_EQ(to_string(AggregateOp::kMax), "max");
}

TEST(AggregateOpTest, Identities) {
  EXPECT_EQ(identity_of(AggregateOp::kSum), 0.0);
  EXPECT_EQ(identity_of(AggregateOp::kCount), 0.0);
  EXPECT_EQ(identity_of(AggregateOp::kMin),
            std::numeric_limits<Value>::infinity());
  EXPECT_EQ(identity_of(AggregateOp::kMax),
            -std::numeric_limits<Value>::infinity());
}

TEST(AggregateOpTest, CombineSemantics) {
  Value acc = identity_of(AggregateOp::kMin);
  combine(AggregateOp::kMin, acc, 5.0);
  combine(AggregateOp::kMin, acc, 3.0);
  combine(AggregateOp::kMin, acc, 7.0);
  EXPECT_EQ(acc, 3.0);
  acc = identity_of(AggregateOp::kMax);
  combine(AggregateOp::kMax, acc, 5.0);
  combine(AggregateOp::kMax, acc, 9.0);
  EXPECT_EQ(acc, 9.0);
  acc = 0.0;
  combine(AggregateOp::kCount, acc, 1.0);
  combine(AggregateOp::kCount, acc, 1.0);
  EXPECT_EQ(acc, 2.0);
}

TEST(AggregateOpTest, ContributionMapsCountToOne) {
  EXPECT_EQ(contribution_of(AggregateOp::kCount, 7.5), 1.0);
  EXPECT_EQ(contribution_of(AggregateOp::kSum, 7.5), 7.5);
  EXPECT_EQ(contribution_of(AggregateOp::kMin, 7.5), 7.5);
}

TEST(AggregateOpTest, FinalizeReplacesIdentityWithZero) {
  DenseArray a{Shape{{3}}};
  fill_identity(AggregateOp::kMin, a);
  a[1] = 4.0;
  finalize_view(AggregateOp::kMin, a);
  EXPECT_EQ(a[0], 0.0);
  EXPECT_EQ(a[1], 4.0);
  EXPECT_EQ(a[2], 0.0);
}

class AggregateOpKernelTest : public ::testing::TestWithParam<AggregateOp> {};

TEST_P(AggregateOpKernelTest, DenseInputLevelMatchesBruteForce) {
  const AggregateOp op = GetParam();
  const DenseArray parent = testing::random_dense({5, 4, 3}, 0.4, 9);
  for (int pos = 0; pos < 3; ++pos) {
    DenseArray child{parent.shape().without_dim(pos)};
    fill_identity(op, child);
    const AggregationTarget target{pos, &child};
    aggregate_children(parent, std::span(&target, 1),
                       {.op = op, .input_level = true});
    finalize_view(op, child);
    EXPECT_EQ(child, brute_force_op(parent, pos, op))
        << to_string(op) << " pos=" << pos;
  }
}

TEST_P(AggregateOpKernelTest, SparseMatchesDense) {
  const AggregateOp op = GetParam();
  const DenseArray dense = testing::random_dense({6, 5, 4}, 0.3, 17);
  const SparseArray sparse = SparseArray::from_dense(dense, {3, 3, 3});
  for (int pos = 0; pos < 3; ++pos) {
    DenseArray from_dense{dense.shape().without_dim(pos)};
    DenseArray from_sparse{dense.shape().without_dim(pos)};
    fill_identity(op, from_dense);
    fill_identity(op, from_sparse);
    const AggregationTarget dense_target{pos, &from_dense};
    const AggregationTarget sparse_target{pos, &from_sparse};
    aggregate_children(dense, std::span(&dense_target, 1),
                       {.op = op, .input_level = true});
    aggregate_children(sparse, std::span(&sparse_target, 1), {.op = op});
    EXPECT_EQ(from_dense, from_sparse) << to_string(op) << " pos=" << pos;
  }
}

TEST_P(AggregateOpKernelTest, TwoLevelAggregationIsConsistent) {
  // Aggregating twice through the view-level kernel must equal one
  // two-dimension brute force — validates the identity-marker semantics
  // between levels.
  const AggregateOp op = GetParam();
  const DenseArray parent = testing::random_dense({4, 3, 5}, 0.5, 21);
  // Level 1: drop dim 2.
  DenseArray mid{parent.shape().without_dim(2)};
  fill_identity(op, mid);
  const AggregationTarget t1{2, &mid};
  aggregate_children(parent, std::span(&t1, 1),
                     {.op = op, .input_level = true});
  // Level 2: drop dim 1 (of the remaining {0,1}).
  DenseArray final_view{mid.shape().without_dim(1)};
  fill_identity(op, final_view);
  const AggregationTarget t2{1, &final_view};
  aggregate_children(mid, std::span(&t2, 1),
                     {.op = op, .input_level = false});
  finalize_view(op, final_view);

  // Brute force in one shot.
  DenseArray expected{Shape{{4}}};
  fill_identity(op, expected);
  std::vector<std::int64_t> idx(3);
  for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
    if (parent[linear] == Value{0}) continue;
    parent.shape().unravel(linear, idx.data());
    combine(op, expected[idx[0]], contribution_of(op, parent[linear]));
  }
  finalize_view(op, expected);
  EXPECT_EQ(final_view, expected) << to_string(op);
}

INSTANTIATE_TEST_SUITE_P(Ops, AggregateOpKernelTest,
                         ::testing::ValuesIn(kAllOps),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

// --- split path: shapes large enough that a parallel scan splits into
// --- several tasks, with at least one pass-2 target ---

/// Pool sizes the determinism contract is exercised with: serial, even,
/// odd/oversubscribed, and whatever the machine has.
std::vector<int> pool_sizes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1, 2, 7, hw == 0 ? 1 : static_cast<int>(hw)};
}

std::vector<int> all_positions(int ndim) {
  std::vector<int> positions;
  for (int pos = 0; pos < ndim; ++pos) positions.push_back(pos);
  return positions;
}

/// Raw input of small signed integers: 0 (empty) with probability
/// 1 - density, otherwise a nonzero value in [-9, 9]. Integer-valued so
/// every SUM is exact and comparable to the brute force bit for bit. The
/// sign follows the innermost coordinate: negative in its first third,
/// positive in its last third, random in between. So some child cells
/// see only negative values and some only positive ones, and a MIN/MAX
/// partial that wrongly starts from 0 changes the result.
DenseArray signed_dense(const std::vector<std::int64_t>& extents,
                        double density, std::uint64_t seed) {
  DenseArray array{Shape{extents}};
  const std::int64_t inner = extents.back();
  Xoshiro256ss rng(seed);
  for (std::int64_t i = 0; i < array.size(); ++i) {
    if (rng.next_double() < density) {
      const auto magnitude = static_cast<Value>(1 + rng.next_below(9));
      const std::int64_t x = i % inner;
      const bool negative = x < inner / 3        ? true
                            : x >= 2 * inner / 3 ? false
                                                 : rng.next_below(2) == 0;
      array[i] = negative ? -magnitude : magnitude;
    }
  }
  return array;
}

/// Every single-dimension child of `parent` from ONE scan under `op` on a
/// pool of `threads`, finalized for comparison.
template <typename ParentT>
std::vector<DenseArray> split_children(const ParentT& parent, AggregateOp op,
                                       bool input_level, int threads) {
  ThreadPool pool(threads);
  std::vector<DenseArray> children;
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
    fill_identity(op, children.back());
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < parent.ndim(); ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  aggregate_children(parent, targets,
                     {.pool = &pool, .op = op, .input_level = input_level});
  for (DenseArray& child : children) finalize_view(op, child);
  return children;
}

/// Runs the scan on every pool size; each result must equal the brute
/// force and be bit-identical to the single-thread result.
template <typename ParentT>
void expect_split_matches(const ParentT& parent, const DenseArray& input,
                          AggregateOp op, bool input_level) {
  const std::vector<DenseArray> serial =
      split_children(parent, op, input_level, 1);
  for (int pos = 0; pos < input.ndim(); ++pos) {
    EXPECT_EQ(serial[static_cast<std::size_t>(pos)],
              brute_force_op(input, pos, op))
        << to_string(op) << " pos=" << pos;
  }
  for (const int threads : pool_sizes()) {
    const std::vector<DenseArray> pooled =
        split_children(parent, op, input_level, threads);
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(std::memcmp(serial[c].data(), pooled[c].data(),
                            static_cast<std::size_t>(serial[c].bytes())),
                0)
          << to_string(op) << " child " << c << " differs with " << threads
          << " threads";
    }
  }
}

class AggregateOpStripedTest : public ::testing::TestWithParam<AggregateOp> {
};

TEST_P(AggregateOpStripedTest, DenseInputLevelMatchesBruteForceOnEveryPool) {
  const AggregateOp op = GetParam();
  const DenseArray input = signed_dense({40, 36, 24}, 0.6, 31);
  ASSERT_TRUE(testing::splits_with_pass2(
      testing::dense_scan_grid(input.shape()), all_positions(3),
      input.size()));
  expect_split_matches(input, input, op, /*input_level=*/true);
}

TEST_P(AggregateOpStripedTest, DenseViewLevelMatchesBruteForceOnEveryPool) {
  // A live view holds the identity in empty cells and, under COUNT,
  // counts elsewhere: the input mapped cell by cell.
  const AggregateOp op = GetParam();
  const DenseArray input = signed_dense({12, 10, 16, 14}, 0.5, 47);
  DenseArray view = input;
  for (std::int64_t i = 0; i < view.size(); ++i) {
    view[i] = input[i] == Value{0} ? identity_of(op)
                                   : contribution_of(op, input[i]);
  }
  ASSERT_TRUE(testing::splits_with_pass2(
      testing::dense_scan_grid(view.shape()), all_positions(4), view.size()));
  expect_split_matches(view, input, op, /*input_level=*/false);
}

TEST_P(AggregateOpStripedTest, SparseClippedChunksMatchBruteForceOnEveryPool) {
  // 8^3 chunks over 45x37x26: every dimension ends in a clipped chunk.
  const AggregateOp op = GetParam();
  const DenseArray input = signed_dense({45, 37, 26}, 0.6, 59);
  const SparseArray sparse = SparseArray::from_dense(input, {8, 8, 8});
  ASSERT_TRUE(testing::splits_with_pass2(sparse.chunk_grid(),
                                         all_positions(3), sparse.nnz()));
  expect_split_matches(sparse, input, op, /*input_level=*/true);
}

INSTANTIATE_TEST_SUITE_P(Ops, AggregateOpStripedTest,
                         ::testing::ValuesIn(kAllOps),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST(AggregateOpTest, CombineArrays) {
  DenseArray a{Shape{{3}}};
  DenseArray b{Shape{{3}}};
  a[0] = 1;
  a[1] = 5;
  b[0] = 4;
  b[1] = 2;
  DenseArray a_min = a;
  combine_arrays(AggregateOp::kMin, a_min, b);
  // Note: cell 2 is 0 in both (raw zeros combine as values here; the
  // builders use identity-filled live arrays so this never sees raw 0s).
  EXPECT_EQ(a_min[0], 1.0);
  EXPECT_EQ(a_min[1], 2.0);
  DenseArray a_sum = a;
  combine_arrays(AggregateOp::kSum, a_sum, b);
  EXPECT_EQ(a_sum[0], 5.0);
  EXPECT_EQ(a_sum[1], 7.0);
}

TEST(AggregateOpTest, AverageOf) {
  DenseArray sum{Shape{{3}}};
  DenseArray count{Shape{{3}}};
  sum[0] = 10;
  count[0] = 4;
  sum[1] = 9;
  count[1] = 3;
  const DenseArray avg = average_of(sum, count);
  EXPECT_EQ(avg[0], 2.5);
  EXPECT_EQ(avg[1], 3.0);
  EXPECT_EQ(avg[2], 0.0);  // no data -> 0, not NaN
  EXPECT_THROW(average_of(sum, DenseArray{Shape{{2}}}), InvalidArgument);
}

}  // namespace
}  // namespace cubist
