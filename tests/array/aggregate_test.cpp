#include "array/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "test_util.h"

namespace cubist {
namespace {

/// Brute-force marginalization: sums `parent` over dimension `pos` using
/// only Shape::unravel — independent of the kernel's stride arithmetic.
DenseArray brute_force_aggregate(const DenseArray& parent, int pos) {
  DenseArray out{parent.shape().without_dim(pos)};
  const int m = parent.ndim();
  std::vector<std::int64_t> idx(static_cast<std::size_t>(m));
  std::vector<std::int64_t> child_idx;
  for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
    parent.shape().unravel(linear, idx.data());
    child_idx.clear();
    for (int d = 0; d < m; ++d) {
      if (d != pos) child_idx.push_back(idx[d]);
    }
    out.at(child_idx) += parent[linear];
  }
  return out;
}

TEST(AggregateDenseTest, SingleTargetMatchesBruteForce2D) {
  const DenseArray parent = testing::iota_dense({3, 4});
  for (int pos = 0; pos < 2; ++pos) {
    DenseArray child{parent.shape().without_dim(pos)};
    const AggregationTarget target{pos, &child};
    aggregate_children(parent, std::span(&target, 1));
    EXPECT_EQ(child, brute_force_aggregate(parent, pos)) << "pos=" << pos;
  }
}

TEST(AggregateDenseTest, AllChildrenSimultaneouslyMatchBruteForce) {
  const DenseArray parent = testing::random_dense({4, 3, 5}, 0.7, 21);
  std::vector<DenseArray> children;
  children.reserve(3);
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  const AggregationStats stats = aggregate_children(parent, targets);
  for (int pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(children[static_cast<std::size_t>(pos)],
              brute_force_aggregate(parent, pos))
        << "pos=" << pos;
  }
  EXPECT_EQ(stats.cells_scanned, parent.size());
  EXPECT_EQ(stats.updates, parent.size() * 3);
}

TEST(AggregateDenseTest, VectorToScalar) {
  const DenseArray parent = testing::iota_dense({5});
  DenseArray child{Shape{std::vector<std::int64_t>{}}};
  const AggregationTarget target{0, &child};
  aggregate_children(parent, std::span(&target, 1));
  EXPECT_EQ(child[0], 15.0);  // 1+2+3+4+5
}

TEST(AggregateDenseTest, TotalIsPreservedByEveryChild) {
  const DenseArray parent = testing::random_dense({6, 2, 4, 3}, 0.4, 8);
  for (int pos = 0; pos < 4; ++pos) {
    DenseArray child{parent.shape().without_dim(pos)};
    const AggregationTarget target{pos, &child};
    aggregate_children(parent, std::span(&target, 1));
    EXPECT_EQ(child.total(), parent.total()) << "pos=" << pos;
  }
}

TEST(AggregateDenseTest, AccumulatesIntoExistingValues) {
  const DenseArray parent = testing::iota_dense({2, 2});
  DenseArray child{Shape{{2}}};
  child.fill(100.0);
  const AggregationTarget target{0, &child};
  aggregate_children(parent, std::span(&target, 1));
  EXPECT_EQ(child[0], 104.0);  // 100 + 1 + 3
  EXPECT_EQ(child[1], 106.0);  // 100 + 2 + 4
}

TEST(AggregateDenseTest, ShapeMismatchThrows) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray wrong{Shape{{3}}};  // should be {4} for pos=0
  const AggregationTarget target{0, &wrong};
  EXPECT_THROW(aggregate_children(parent, std::span(&target, 1)),
               InvalidArgument);
}

TEST(AggregateDenseTest, EmptyTargetsIsNoOp) {
  const DenseArray parent = testing::iota_dense({3, 4});
  const AggregationStats stats =
      aggregate_children(parent, std::span<const AggregationTarget>{});
  EXPECT_EQ(stats.cells_scanned, 0);
  EXPECT_EQ(stats.updates, 0);
}

// --- sparse kernel ---

class AggregateSparseTest
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(AggregateSparseTest, MatchesDenseKernelForAnyChunking) {
  const std::vector<std::int64_t> chunk_extents = GetParam();
  const DenseArray dense = testing::random_dense({7, 5, 6}, 0.3, 33);
  const SparseArray sparse = SparseArray::from_dense(dense, chunk_extents);

  for (int pos = 0; pos < 3; ++pos) {
    DenseArray from_sparse{dense.shape().without_dim(pos)};
    DenseArray from_dense{dense.shape().without_dim(pos)};
    const AggregationTarget sparse_target{pos, &from_sparse};
    const AggregationTarget dense_target{pos, &from_dense};
    aggregate_children(sparse, std::span(&sparse_target, 1));
    aggregate_children(dense, std::span(&dense_target, 1));
    EXPECT_EQ(from_sparse, from_dense) << "pos=" << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Chunkings, AggregateSparseTest,
    ::testing::Values(std::vector<std::int64_t>{7, 5, 6},   // one chunk
                      std::vector<std::int64_t>{4, 4, 4},   // boundary chunks
                      std::vector<std::int64_t>{1, 1, 1},   // degenerate
                      std::vector<std::int64_t>{2, 5, 3},   // mixed
                      std::vector<std::int64_t>{16, 16, 16}));  // oversize

TEST(AggregateSparseTest, MultiTargetMatchesBruteForce) {
  const DenseArray dense = testing::random_dense({6, 4, 5}, 0.25, 77);
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4, 4});
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(dense.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  const AggregationStats stats = aggregate_children(sparse, targets);
  for (int pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(children[static_cast<std::size_t>(pos)],
              brute_force_aggregate(dense, pos));
  }
  EXPECT_EQ(stats.cells_scanned, sparse.nnz());
  EXPECT_EQ(stats.updates, sparse.nnz() * 3);
}

TEST(AggregateSparseTest, HugeChunkFallsBackToDecodePath) {
  // A single chunk of 4.48M cells, above the 2^22 cells a full-chunk
  // offset table would need: the split tables keep every table at about
  // sqrt(volume) entries (1600 outer + 2800 inner per target here), and
  // the scan must still match the dense kernel.
  const std::vector<std::int64_t> extents{40, 40, 40, 70};  // 4.48M cells
  DenseArray dense{Shape{extents}};
  Xoshiro256ss rng(99);
  // Populate sparsely by hand to keep the test fast.
  for (int i = 0; i < 20000; ++i) {
    const auto linear =
        static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(dense.size())));
    dense[linear] = static_cast<Value>(1 + rng.next_below(9));
  }
  const SparseArray sparse = SparseArray::from_dense(dense, extents);
  ASSERT_EQ(sparse.num_chunks(), 1);
  for (int pos = 0; pos < 4; ++pos) {
    DenseArray from_sparse{dense.shape().without_dim(pos)};
    DenseArray from_dense{dense.shape().without_dim(pos)};
    const AggregationTarget st{pos, &from_sparse};
    const AggregationTarget dt{pos, &from_dense};
    aggregate_children(sparse, std::span(&st, 1));
    aggregate_children(dense, std::span(&dt, 1));
    ASSERT_EQ(from_sparse, from_dense) << pos;
  }
}

// --- sparse kernel property test: bit-identical to the dense kernel ---

/// One shape and chunking of the property test.
struct SparseCase {
  std::string name;
  std::vector<std::int64_t> extents;
  std::vector<std::int64_t> chunks;
  double density;
  /// The case must leave at least one chunk without non-zeros.
  bool has_empty_chunk = false;
};

void PrintTo(const SparseCase& c, std::ostream* os) { *os << c.name; }

std::string sparse_case_name(
    const ::testing::TestParamInfo<SparseCase>& param) {
  return param.param.name;
}

/// The case's dense input: random small integers, plus a non-zero at the
/// last offset of the first chunk and of the (clipped) last chunk.
DenseArray sparse_case_input(const SparseCase& c, std::uint64_t seed) {
  DenseArray dense = testing::random_dense(c.extents, c.density, seed);
  std::vector<std::int64_t> first_last(c.extents.size());
  std::vector<std::int64_t> array_last(c.extents.size());
  for (std::size_t d = 0; d < c.extents.size(); ++d) {
    first_last[d] = std::min(c.chunks[d], c.extents[d]) - 1;
    array_last[d] = c.extents[d] - 1;
  }
  dense.at(first_last) = 7.0;
  dense.at(array_last) = 3.0;
  return dense;
}

/// Children of `parent` for the targets `positions`, filled with the
/// operator's identity and aggregated input-level on a pool of `threads`.
template <typename ParentT>
std::vector<DenseArray> aggregate_subset(const ParentT& parent,
                                         const std::vector<int>& positions,
                                         AggregateOp op, int threads) {
  ThreadPool pool(threads);
  std::vector<DenseArray> children;
  children.reserve(positions.size());
  std::vector<AggregationTarget> targets;
  for (const int pos : positions) {
    children.emplace_back(parent.shape().without_dim(pos));
    fill_identity(op, children.back());
    targets.push_back({pos, &children.back()});
  }
  aggregate_children(parent, targets,
                     {.pool = &pool, .op = op, .input_level = true});
  return children;
}

bool bytes_equal(const DenseArray& a, const DenseArray& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.bytes())) == 0;
}

/// Target subsets: all positions, each single one, and every other one.
std::vector<std::vector<int>> target_subsets(int ndim) {
  std::vector<std::vector<int>> subsets(1);
  std::vector<int> every_other;
  for (int pos = 0; pos < ndim; ++pos) {
    subsets[0].push_back(pos);
    subsets.push_back({pos});
    if (pos % 2 == 0) every_other.push_back(pos);
  }
  subsets.push_back(every_other);
  return subsets;
}

class SparseKernelPropertyTest : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseKernelPropertyTest, BitIdenticalToDenseKernel) {
  const SparseCase& c = GetParam();
  const DenseArray input = sparse_case_input(c, 1000 + c.extents.size());
  const SparseArray sparse = SparseArray::from_dense(input, c.chunks);
  const DenseArray dense = sparse.to_dense();
  ASSERT_EQ(dense, input);
  bool any_empty = false;
  for (std::int64_t id = 0; id < sparse.num_chunks(); ++id) {
    any_empty = any_empty || sparse.chunk_offsets(id).empty();
  }
  if (c.has_empty_chunk) {
    EXPECT_TRUE(any_empty);
  }

  for (const AggregateOp op : {AggregateOp::kSum, AggregateOp::kCount,
                               AggregateOp::kMin, AggregateOp::kMax}) {
    for (const std::vector<int>& positions : target_subsets(sparse.ndim())) {
      const std::vector<DenseArray> expected =
          aggregate_subset(dense, positions, op, 1);
      for (const int threads : {1, 2, 4}) {
        const std::vector<DenseArray> actual =
            aggregate_subset(sparse, positions, op, threads);
        for (std::size_t t = 0; t < positions.size(); ++t) {
          EXPECT_TRUE(bytes_equal(actual[t], expected[t]))
              << to_string(op) << " target " << positions[t] << " of "
              << positions.size() << " on " << threads << " threads";
        }
      }
    }
  }
}

// Chunks above 1024 cells split inside the chunk (an outer and an inner
// table); smaller ones are walked as one row. Extents that the chunks do
// not divide clip the last chunk along those dimensions, on both sides of
// the split where there is one. The d3, d4 and d6 split cases hold over
// 2^14 non-zeros, so their scans split over the pool.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseKernelPropertyTest,
    ::testing::Values(
        SparseCase{"d1_clipped", {37}, {8}, 0.5},
        SparseCase{"d1_one_cell_chunks", {9}, {1}, 0.5, true},
        SparseCase{"d2_clipped", {23, 18}, {5, 4}, 0.3},
        SparseCase{"d2_chunk_past_extent", {6, 5}, {16, 16}, 0.4},
        SparseCase{"d3_one_cell_chunks", {5, 4, 3}, {1, 1, 1}, 0.4, true},
        SparseCase{"d3_split_clipped_both_sides", {45, 29, 23}, {32, 8, 8},
                   0.6},
        SparseCase{"d3_empty_chunks", {24, 20, 16}, {4, 4, 4}, 0.01, true},
        SparseCase{"d4_split_clipped_both_sides", {20, 19, 18, 17},
                   {16, 16, 16, 16}, 0.2},
        SparseCase{"d5_clipped", {7, 6, 5, 4, 9}, {3, 4, 2, 4, 4}, 0.3},
        SparseCase{"d6_split_clipped_both_sides", {9, 6, 5, 7, 6, 5},
                   {4, 4, 4, 4, 4, 4}, 0.3},
        SparseCase{"d7_runtime_target_count", {3, 4, 3, 2, 3, 4, 3},
                   {2, 2, 2, 2, 2, 2, 2}, 0.3}),
    sparse_case_name);

/// Every subset of `ndim` positions, as ascending kept-position lists.
std::vector<std::vector<int>> all_kept_subsets(int ndim) {
  std::vector<std::vector<int>> subsets;
  for (std::uint32_t mask = 0; mask < (1u << ndim); ++mask) {
    std::vector<int> kept;
    for (int d = 0; d < ndim; ++d) {
      if ((mask >> d) & 1u) kept.push_back(d);
    }
    subsets.push_back(kept);
  }
  return subsets;
}

TEST_P(SparseKernelPropertyTest, SparseProjectBitIdenticalToDenseProject) {
  // Every kept subset: keep-none, keep-all and every multi-dimension drop.
  const SparseCase& c = GetParam();
  const DenseArray input = sparse_case_input(c, 2000 + c.extents.size());
  const SparseArray sparse = SparseArray::from_dense(input, c.chunks);
  for (const std::vector<int>& kept : all_kept_subsets(sparse.ndim())) {
    std::vector<std::int64_t> out_extents;
    for (const int d : kept) out_extents.push_back(c.extents[d]);
    DenseArray from_dense{Shape{out_extents}};
    DenseArray from_sparse{Shape{out_extents}};
    project(input, kept, &from_dense);
    const AggregationStats stats = project(sparse, kept, &from_sparse);
    EXPECT_TRUE(bytes_equal(from_sparse, from_dense))
        << kept.size() << " dims kept";
    EXPECT_EQ(stats.cells_scanned, sparse.nnz());
    EXPECT_EQ(stats.updates, sparse.nnz());
  }
}

// --- generic projection ---

TEST(ProjectTest, KeepAllIsIdentityCopy) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{parent.shape()};
  project(parent, {0, 1}, &out);
  EXPECT_EQ(out, parent);
}

TEST(ProjectTest, KeepNoneSumsEverything) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{std::vector<std::int64_t>{}}};
  project(parent, {}, &out);
  EXPECT_EQ(out[0], parent.total());
}

TEST(ProjectTest, MultiDimDropMatchesIteratedSingleDrops) {
  const DenseArray parent = testing::random_dense({4, 3, 5, 2}, 0.6, 13);
  // Drop dims 1 and 3 in one projection...
  DenseArray direct{Shape{{4, 5}}};
  project(parent, {0, 2}, &direct);
  // ...versus dropping 3 then 1 with the single-dim kernel.
  DenseArray step1{parent.shape().without_dim(3)};
  const AggregationTarget t1{3, &step1};
  aggregate_children(parent, std::span(&t1, 1));
  DenseArray step2{step1.shape().without_dim(1)};
  const AggregationTarget t2{1, &step2};
  aggregate_children(step1, std::span(&t2, 1));
  EXPECT_EQ(direct, step2);
}

TEST(ProjectTest, SparseMatchesDense) {
  const DenseArray dense = testing::random_dense({5, 6, 4}, 0.3, 41);
  const SparseArray sparse = SparseArray::from_dense(dense, {3, 3, 3});
  DenseArray from_dense{Shape{{6}}};
  DenseArray from_sparse{Shape{{6}}};
  project(dense, {1}, &from_dense);
  project(sparse, {1}, &from_sparse);
  EXPECT_EQ(from_dense, from_sparse);
}

TEST(ProjectTest, NonAscendingKeptPositionsRejected) {
  const DenseArray parent = testing::iota_dense({3, 4, 5});
  DenseArray out{Shape{{5, 3}}};
  EXPECT_THROW(project(parent, {2, 0}, &out), InvalidArgument);
}

TEST(ProjectTest, WrongOutputShapeRejected) {
  const DenseArray parent = testing::iota_dense({3, 4});
  DenseArray out{Shape{{3}}};
  EXPECT_THROW(project(parent, {1}, &out), InvalidArgument);
}

}  // namespace
}  // namespace cubist
