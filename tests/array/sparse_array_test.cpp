#include "array/sparse_array.h"

#include <gtest/gtest.h>

#include <limits>

#include "test_util.h"

namespace cubist {
namespace {

TEST(SparseArrayTest, EmptyArrayHasNoNonzeros) {
  const SparseArray s{Shape{{8, 8}}, {4, 4}};
  EXPECT_EQ(s.nnz(), 0);
  EXPECT_EQ(s.num_chunks(), 4);
  EXPECT_EQ(s.bytes(), 0);
}

TEST(SparseArrayTest, ChunkGridCoversArray) {
  const SparseArray s{Shape{{10, 7}}, {4, 4}};
  // ceil(10/4)=3, ceil(7/4)=2.
  EXPECT_EQ(s.chunk_grid().extent(0), 3);
  EXPECT_EQ(s.chunk_grid().extent(1), 2);
  EXPECT_EQ(s.num_chunks(), 6);
}

TEST(SparseArrayTest, BoundaryChunksAreClipped) {
  const SparseArray s{Shape{{10, 7}}, {4, 4}};
  EXPECT_TRUE(s.chunk_is_full({0, 0}));
  EXPECT_FALSE(s.chunk_is_full({2, 0}));  // rows 8..9 only
  EXPECT_FALSE(s.chunk_is_full({0, 1}));  // cols 4..6 only
  EXPECT_EQ(s.chunk_shape_at({2, 1}), (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(s.chunk_base({2, 1}), (std::vector<std::int64_t>{8, 4}));
}

TEST(SparseArrayTest, DenseRoundTrip) {
  const DenseArray dense = testing::random_dense({9, 6, 5}, 0.3, 17);
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4, 4});
  EXPECT_EQ(sparse.to_dense(), dense);
}

TEST(SparseArrayTest, DenseRoundTripWithExactChunking) {
  const DenseArray dense = testing::random_dense({8, 8}, 0.5, 3);
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4});
  EXPECT_EQ(sparse.to_dense(), dense);
}

TEST(SparseArrayTest, NnzMatchesDenseNonzeroCount) {
  const DenseArray dense = testing::random_dense({10, 10}, 0.25, 5);
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) ++count;
  }
  const SparseArray sparse = SparseArray::from_dense(dense, {4, 4});
  EXPECT_EQ(sparse.nnz(), count);
  EXPECT_DOUBLE_EQ(sparse.density(),
                   static_cast<double>(count) / 100.0);
}

TEST(SparseArrayTest, PushDropsZeros) {
  SparseArray s{Shape{{4}}, {4}};
  s.push(std::vector<std::int64_t>{1}, 0.0);
  s.push(std::vector<std::int64_t>{2}, 3.0);
  s.finalize();
  EXPECT_EQ(s.nnz(), 1);
}

TEST(SparseArrayTest, ForEachNonzeroVisitsGlobalCoordinates) {
  SparseArray s{Shape{{6, 6}}, {4, 4}};
  s.push(std::vector<std::int64_t>{5, 5}, 2.0);  // boundary chunk
  s.push(std::vector<std::int64_t>{0, 0}, 1.0);  // first chunk
  s.finalize();
  std::vector<std::pair<std::vector<std::int64_t>, Value>> seen;
  s.for_each_nonzero([&](const std::int64_t* idx, Value v) {
    seen.emplace_back(std::vector<std::int64_t>{idx[0], idx[1]}, v);
  });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(seen[0].second, 1.0);
  EXPECT_EQ(seen[1].first, (std::vector<std::int64_t>{5, 5}));
  EXPECT_EQ(seen[1].second, 2.0);
}

TEST(SparseArrayTest, FinalizeSortsOutOfOrderPushes) {
  SparseArray s{Shape{{8}}, {8}};
  s.push(std::vector<std::int64_t>{5}, 5.0);
  s.push(std::vector<std::int64_t>{1}, 1.0);
  s.push(std::vector<std::int64_t>{3}, 3.0);
  s.finalize();
  const auto offsets = s.chunk_offsets(0);
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_TRUE(offsets[0] < offsets[1] && offsets[1] < offsets[2]);
  const DenseArray dense = s.to_dense();
  EXPECT_EQ(dense[1], 1.0);
  EXPECT_EQ(dense[3], 3.0);
  EXPECT_EQ(dense[5], 5.0);
}

TEST(SparseArrayTest, DuplicateOffsetRejected) {
  SparseArray s{Shape{{8}}, {8}};
  s.push(std::vector<std::int64_t>{3}, 1.0);
  s.push(std::vector<std::int64_t>{3}, 2.0);
  EXPECT_THROW(s.finalize(), InvalidArgument);
}

TEST(SparseArrayTest, PushAfterFinalizeRejected) {
  SparseArray s{Shape{{8}}, {8}};
  s.finalize();
  EXPECT_THROW(s.push(std::vector<std::int64_t>{0}, 1.0), InvalidArgument);
}

std::vector<SparseArray::Offset> offsets_of(const SparseArray& s,
                                            std::int64_t chunk) {
  const auto span = s.chunk_offsets(chunk);
  return {span.begin(), span.end()};
}

std::vector<Value> values_of(const SparseArray& s, std::int64_t chunk) {
  const auto span = s.chunk_values(chunk);
  return {span.begin(), span.end()};
}

TEST(SparseArrayTest, AssignChunkInstallsCellsAndCountsThem) {
  // Chunk 5 is grid cell (2, 1): rows 8..9, cols 4..6, clipped to 2x3.
  SparseArray s{Shape{{10, 7}}, {4, 4}};
  s.assign_chunk(5, {0, 5}, {2.0, 3.0});
  s.assign_chunk(0, {15}, {4.0});
  s.finalize();
  EXPECT_EQ(s.nnz(), 3);
  const DenseArray dense = s.to_dense();
  EXPECT_EQ(dense.at({8, 4}), 2.0);
  EXPECT_EQ(dense.at({9, 6}), 3.0);
  EXPECT_EQ(dense.at({3, 3}), 4.0);
}

TEST(SparseArrayTest, AssignChunkReplacesDropsZerosAndLeavesSortingToFinalize) {
  SparseArray s{Shape{{8}}, {8}};
  s.assign_chunk(0, {1, 2}, {1.0, 2.0});
  s.assign_chunk(0, {6, 0, 3, 4}, {6.0, 0.0, 3.0, 4.0});
  EXPECT_EQ(s.nnz(), 3);
  s.finalize();
  EXPECT_EQ(offsets_of(s, 0), (std::vector<SparseArray::Offset>{3, 4, 6}));
  EXPECT_EQ(values_of(s, 0), (std::vector<Value>{3.0, 4.0, 6.0}));
}

TEST(SparseArrayTest, AssignChunkRejectsOffsetBeyondClippedVolume) {
  SparseArray s{Shape{{10, 7}}, {4, 4}};
  // Boundary chunk 5 holds 2x3 = 6 cells: offset 6 is out, though a full
  // 4x4 chunk would hold it.
  EXPECT_THROW(s.assign_chunk(5, {6}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.assign_chunk(0, {16}, {1.0}), InvalidArgument);
  EXPECT_EQ(s.nnz(), 0);
  s.assign_chunk(5, {5}, {1.0});
  EXPECT_EQ(s.nnz(), 1);
}

TEST(SparseArrayTest, AssignChunkRejectsMismatchedSizesAndBadChunkIds) {
  SparseArray s{Shape{{10, 7}}, {4, 4}};
  EXPECT_THROW(s.assign_chunk(0, {1, 2}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.assign_chunk(6, {0}, {1.0}), InvalidArgument);
  EXPECT_THROW(s.assign_chunk(-1, {0}, {1.0}), InvalidArgument);
  EXPECT_EQ(s.nnz(), 0);
}

TEST(SparseArrayTest, AssignChunkAfterFinalizeRejected) {
  SparseArray s{Shape{{8}}, {8}};
  s.finalize();
  EXPECT_THROW(s.assign_chunk(0, {0}, {1.0}), InvalidArgument);
}

TEST(SparseArrayTest, AssignChunkDuplicateCaughtByFinalize) {
  SparseArray sorted{Shape{{8}}, {8}};
  sorted.assign_chunk(0, {2, 2}, {1.0, 2.0});
  EXPECT_THROW(sorted.finalize(), InvalidArgument);
  SparseArray unsorted{Shape{{8}}, {8}};
  unsorted.assign_chunk(0, {5, 1, 5}, {1.0, 2.0, 3.0});
  EXPECT_THROW(unsorted.finalize(), InvalidArgument);
}

/// NaN, +inf and -inf: the values every sparse entry point rejects.
std::vector<Value> non_finite_values() {
  return {std::numeric_limits<Value>::quiet_NaN(),
          std::numeric_limits<Value>::infinity(),
          -std::numeric_limits<Value>::infinity()};
}

TEST(SparseArrayTest, PushRejectsNonFiniteValues) {
  for (const Value bad : non_finite_values()) {
    SparseArray s{Shape{{4, 4}}, {2, 2}};
    s.push(std::vector<std::int64_t>{0, 1}, 1.0);
    EXPECT_THROW(s.push(std::vector<std::int64_t>{2, 3}, bad),
                 InvalidArgument)
        << bad;
    EXPECT_EQ(s.nnz(), 1);
  }
}

TEST(SparseArrayTest, AssignChunkRejectsNonFiniteValues) {
  for (const Value bad : non_finite_values()) {
    SparseArray s{Shape{{8}}, {8}};
    s.assign_chunk(0, {1, 2}, {1.0, 2.0});
    EXPECT_THROW(s.assign_chunk(0, {3, 4, 5}, {3.0, bad, 5.0}),
                 InvalidArgument)
        << bad;
    // The rejected call leaves the chunk as it was.
    EXPECT_EQ(s.nnz(), 2);
    s.finalize();
    EXPECT_EQ(offsets_of(s, 0), (std::vector<SparseArray::Offset>{1, 2}));
  }
}

TEST(SparseArrayTest, FromDenseRejectsNonFiniteCells) {
  for (const Value bad : non_finite_values()) {
    DenseArray dense = testing::random_dense({5, 6}, 0.5, 4);
    dense.at({4, 5}) = bad;
    EXPECT_THROW(SparseArray::from_dense(dense, {2, 4}), InvalidArgument)
        << bad;
  }
}

TEST(SparseArrayTest, HugeChunkVolumeRejected) {
  EXPECT_THROW(SparseArray(Shape{{std::int64_t{1} << 20, std::int64_t{1} << 20}},
                           {std::int64_t{1} << 20, std::int64_t{1} << 20}),
               InvalidArgument);
}

TEST(SparseArrayTest, BytesAccountsOffsetsAndValues) {
  SparseArray s{Shape{{8}}, {4}};
  s.push(std::vector<std::int64_t>{0}, 1.0);
  s.push(std::vector<std::int64_t>{7}, 2.0);
  s.finalize();
  EXPECT_EQ(s.bytes(), 2 * static_cast<std::int64_t>(sizeof(SparseArray::Offset) +
                                                     sizeof(Value)));
}

}  // namespace
}  // namespace cubist
