#include "io/generators.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.h"
#include "minimpi/proc_grid.h"

namespace cubist {
namespace {

SparseSpec spec_8x8x8(double density, std::uint64_t seed) {
  SparseSpec spec;
  spec.sizes = {8, 8, 8};
  spec.density = density;
  spec.seed = seed;
  return spec;
}

SparseSpec make_spec(std::vector<std::int64_t> sizes, double density,
                     std::uint64_t seed, std::vector<std::int64_t> chunks,
                     double zipf_theta = 0.0) {
  SparseSpec spec;
  spec.sizes = std::move(sizes);
  spec.density = density;
  spec.seed = seed;
  spec.chunk_extents = std::move(chunks);
  spec.zipf_theta = zipf_theta;
  return spec;
}

/// Fingerprint of the chunk layout: FNV-1a over every chunk in chunk-id
/// order, hashing its non-zero count and then each (offset, value bits)
/// pair. Which cells are populated, their values, and the chunk each cell
/// lands in all feed it; to_dense() would see only the first two.
std::uint64_t layout_fingerprint(const SparseArray& array) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::int64_t c = 0; c < array.num_chunks(); ++c) {
    const auto offsets = array.chunk_offsets(c);
    const auto values = array.chunk_values(c);
    mix(offsets.size());
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      mix(offsets[i]);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &values[i], sizeof bits);
      mix(bits);
    }
  }
  return hash;
}

void expect_same_chunks(const SparseArray& actual,
                        const SparseArray& expected) {
  ASSERT_EQ(actual.shape(), expected.shape());
  ASSERT_EQ(actual.chunk_extents(), expected.chunk_extents());
  EXPECT_EQ(actual.nnz(), expected.nnz());
  for (std::int64_t c = 0; c < expected.num_chunks(); ++c) {
    const auto a_offsets = actual.chunk_offsets(c);
    const auto e_offsets = expected.chunk_offsets(c);
    const auto a_values = actual.chunk_values(c);
    const auto e_values = expected.chunk_values(c);
    EXPECT_EQ(std::vector<SparseArray::Offset>(a_offsets.begin(),
                                               a_offsets.end()),
              std::vector<SparseArray::Offset>(e_offsets.begin(),
                                               e_offsets.end()))
        << "chunk " << c;
    EXPECT_EQ(std::vector<Value>(a_values.begin(), a_values.end()),
              std::vector<Value>(e_values.begin(), e_values.end()))
        << "chunk " << c;
  }
}

// 3-D shape whose chunking clips every boundary chunk.
SparseSpec uniform_3d() {
  return make_spec({37, 23, 19}, 0.3, 7, {5, 7, 4});
}
SparseSpec zipf_3d() {
  return make_spec({37, 23, 19}, 0.2, 9, {5, 7, 4}, 1.1);
}
const BlockRange kOffsetBlock({6, 3, 5}, {31, 23, 17});

// Golden layouts: the generator's data is part of its contract (every
// recorded experiment and certificate depends on it), so these pins
// must only change together with a deliberate change of the data.
TEST(GeneratorsGoldenTest, Uniform3DWithClippedChunks) {
  const SparseArray array = generate_sparse_global(uniform_3d());
  EXPECT_EQ(array.nnz(), 4862);
  EXPECT_EQ(layout_fingerprint(array), 0x0dba20adebc548abULL);
}

TEST(GeneratorsGoldenTest, Zipf3DWithClippedChunks) {
  const SparseArray array = generate_sparse_global(zipf_3d());
  EXPECT_EQ(array.nnz(), 3174);
  EXPECT_EQ(layout_fingerprint(array), 0x04439f0284e887ffULL);
}

TEST(GeneratorsGoldenTest, UniformBlockWithNonZeroLo) {
  const SparseArray block = generate_sparse_block(uniform_3d(), kOffsetBlock);
  EXPECT_EQ(block.nnz(), 1763);
  EXPECT_EQ(layout_fingerprint(block), 0x227924b6c7f96ca8ULL);
}

TEST(GeneratorsGoldenTest, ZipfBlockWithNonZeroLo) {
  const SparseArray block = generate_sparse_block(zipf_3d(), kOffsetBlock);
  EXPECT_EQ(block.nnz(), 287);
  EXPECT_EQ(layout_fingerprint(block), 0x6f358ecdeab7c0e8ULL);
}

TEST(GeneratorsGoldenTest, DensitiesZeroAndOne) {
  const SparseArray empty =
      generate_sparse_global(make_spec({9, 7}, 0.0, 3, {4, 3}));
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_EQ(layout_fingerprint(empty), 0x3ecb33e15783bec5ULL);
  const SparseArray full =
      generate_sparse_global(make_spec({9, 7}, 1.0, 3, {4, 3}));
  EXPECT_EQ(full.nnz(), 63);
  EXPECT_EQ(layout_fingerprint(full), 0x04e164f13c72957bULL);
}

TEST(GeneratorsGoldenTest, OneDimensional) {
  const SparseArray array =
      generate_sparse_global(make_spec({100}, 0.25, 11, {7}));
  EXPECT_EQ(array.nnz(), 25);
  EXPECT_EQ(layout_fingerprint(array), 0x1441561d9c58c0d1ULL);
}

TEST(GeneratorsGoldenTest, SixDimensional) {
  const SparseArray array = generate_sparse_global(
      make_spec({6, 5, 4, 3, 4, 5}, 0.15, 13, {4, 2, 3, 2, 3, 2}));
  EXPECT_EQ(array.nnz(), 1071);
  EXPECT_EQ(layout_fingerprint(array), 0xcf9dcc959af36a58ULL);
  const SparseArray defaults = generate_sparse_global(
      make_spec({20, 18, 5, 4, 3, 2}, 0.1, 17, {}));
  EXPECT_EQ(defaults.nnz(), 4348);
  EXPECT_EQ(layout_fingerprint(defaults), 0x5b68c80bf6ea6cadULL);
}

TEST(GeneratorsTest, DefaultChunksClipToExtent) {
  EXPECT_EQ(default_chunks({64, 8, 4}), (std::vector<std::int64_t>{16, 8, 4}));
}

TEST(GeneratorsTest, DensityIsApproximatelyHonored) {
  for (double density : {0.05, 0.10, 0.25}) {
    SparseSpec spec;
    spec.sizes = {32, 32, 32};  // 32768 cells
    spec.density = density;
    spec.seed = 99;
    const SparseArray array = generate_sparse_global(spec);
    EXPECT_NEAR(array.density(), density, 0.02) << density;
  }
}

TEST(GeneratorsTest, ExtremeDensities) {
  SparseSpec spec = spec_8x8x8(0.0, 1);
  EXPECT_EQ(generate_sparse_global(spec).nnz(), 0);
  spec.density = 1.0;
  EXPECT_EQ(generate_sparse_global(spec).nnz(), 512);
}

TEST(GeneratorsTest, ValuesAreSmallPositiveIntegers) {
  const SparseArray array = generate_sparse_global(spec_8x8x8(0.5, 3));
  array.for_each_nonzero([](const std::int64_t*, Value v) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 9.0);
    EXPECT_EQ(v, static_cast<double>(static_cast<int>(v)));
  });
}

TEST(GeneratorsTest, DeterministicInSeed) {
  const SparseArray a = generate_sparse_global(spec_8x8x8(0.3, 5));
  const SparseArray b = generate_sparse_global(spec_8x8x8(0.3, 5));
  EXPECT_EQ(a.to_dense(), b.to_dense());
  const SparseArray c = generate_sparse_global(spec_8x8x8(0.3, 6));
  EXPECT_NE(a.to_dense(), c.to_dense());
}

TEST(GeneratorsTest, BlockGenerationIsPartitionInvariant) {
  // The load-bearing property (DESIGN.md §2): generating per-block must
  // reproduce exactly the global array, for every grid.
  const SparseSpec spec = spec_8x8x8(0.25, 17);
  const DenseArray global = generate_sparse_global(spec).to_dense();
  for (const std::vector<int>& splits :
       {std::vector<int>{1, 1, 1}, std::vector<int>{3, 0, 0},
        std::vector<int>{0, 2, 0}}) {
    const ProcGrid grid(splits);
    DenseArray reassembled{Shape{spec.sizes}};
    for (int rank = 0; rank < grid.size(); ++rank) {
      const BlockRange block = grid.block(rank, spec.sizes);
      const DenseArray local = generate_sparse_block(spec, block).to_dense();
      std::vector<std::int64_t> lidx(3);
      std::vector<std::int64_t> gidx(3);
      for (std::int64_t linear = 0; linear < local.size(); ++linear) {
        local.shape().unravel(linear, lidx.data());
        for (int d = 0; d < 3; ++d) {
          gidx[d] = block.lo(d) + lidx[d];
        }
        reassembled[reassembled.shape().linear_index(gidx.data())] =
            local[linear];
      }
    }
    EXPECT_EQ(reassembled, global) << ProcGrid(splits).to_string();
  }
}

TEST(GeneratorsTest, BlockExtentsMatchRequest) {
  const SparseSpec spec = spec_8x8x8(0.5, 1);
  const BlockRange block({2, 0, 4}, {6, 8, 8});
  const SparseArray local = generate_sparse_block(spec, block);
  EXPECT_EQ(local.shape().extents(), (std::vector<std::int64_t>{4, 8, 4}));
}

TEST(GeneratorsTest, ZipfSkewConcentratesMassAtLowCoordinates) {
  SparseSpec spec;
  spec.sizes = {64, 64};
  spec.density = 0.2;
  spec.seed = 11;
  spec.zipf_theta = 1.2;
  const SparseArray array = generate_sparse_global(spec);
  // Count non-zeros in the low vs high quadrant of dimension 0.
  std::int64_t low = 0;
  std::int64_t high = 0;
  array.for_each_nonzero([&](const std::int64_t* idx, Value) {
    if (idx[0] < 16) ++low;
    if (idx[0] >= 48) ++high;
  });
  EXPECT_GT(low, 3 * high);
  // Expected overall density is still roughly honored.
  EXPECT_NEAR(array.density(), 0.2, 0.05);
}

TEST(GeneratorsTest, ZipfIsAlsoPartitionInvariant) {
  SparseSpec spec;
  spec.sizes = {16, 16};
  spec.density = 0.3;
  spec.seed = 23;
  spec.zipf_theta = 0.8;
  const DenseArray global = generate_sparse_global(spec).to_dense();
  const BlockRange half({8, 0}, {16, 16});
  const DenseArray local = generate_sparse_block(spec, half).to_dense();
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 16; ++c) {
      EXPECT_EQ(local.at({r, c}), global.at({r + 8, c}));
    }
  }
}

TEST(GeneratorsTest, GenerateDenseMatchesSparse) {
  SparseSpec spec = spec_8x8x8(0.4, 29);
  EXPECT_EQ(generate_dense(spec.sizes, spec.density, spec.seed),
            generate_sparse_global(spec).to_dense());
}

TEST(GeneratorsTest, InvalidDensityRejected) {
  SparseSpec spec = spec_8x8x8(1.5, 1);
  EXPECT_THROW(generate_sparse_global(spec), InvalidArgument);
  spec.density = -0.1;
  EXPECT_THROW(generate_sparse_global(spec), InvalidArgument);
}

TEST(ExtractBlockTest, MatchesDirectGeneration) {
  const SparseSpec spec = spec_8x8x8(0.3, 41);
  const SparseArray global = generate_sparse_global(spec);
  const BlockRange block({0, 4, 2}, {8, 8, 6});
  const SparseArray extracted =
      extract_block(global, block, default_chunks(block.extents()));
  const SparseArray generated = generate_sparse_block(spec, block);
  EXPECT_EQ(extracted.to_dense(), generated.to_dense());
}

TEST(ExtractBlockTest, WholeArrayExtractionIsIdentity) {
  const SparseSpec spec = spec_8x8x8(0.3, 43);
  const SparseArray global = generate_sparse_global(spec);
  const BlockRange whole({0, 0, 0}, {8, 8, 8});
  const SparseArray extracted =
      extract_block(global, whole, {3, 3, 3});  // different chunking
  EXPECT_EQ(extracted.to_dense(), global.to_dense());
  EXPECT_EQ(extracted.nnz(), global.nnz());
}

// A block cut on chunk boundaries (lo a chunk multiple, hi a chunk
// multiple or the global extent), chunked like its source: whole-chunk copy.
TEST(ExtractBlockTest, ChunkAlignedBlockMatchesGenerationChunkByChunk) {
  const SparseSpec spec = uniform_3d();
  const SparseArray global = generate_sparse_global(spec);
  for (const BlockRange& block :
       {BlockRange({5, 7, 4}, {35, 23, 19}),
        BlockRange({0, 0, 0}, {37, 23, 19}),
        BlockRange({10, 14, 8}, {20, 21, 12})}) {
    const SparseArray extracted = extract_block(global, block, {5, 7, 4});
    expect_same_chunks(extracted, generate_sparse_block(spec, block));
  }
  const SparseArray extracted =
      extract_block(global, BlockRange({5, 7, 4}, {35, 23, 19}), {5, 7, 4});
  EXPECT_EQ(extracted.nnz(), 2150);
  EXPECT_EQ(layout_fingerprint(extracted), 0x62f4377173193743ULL);
}

// Any other block takes the per-non-zero path and must land in the same
// layout as direct generation.
TEST(ExtractBlockTest, UnalignedBlockMatchesGenerationChunkByChunk) {
  const SparseSpec spec = uniform_3d();
  const SparseArray global = generate_sparse_global(spec);
  const BlockRange unaligned({3, 2, 1}, {30, 20, 18});
  const SparseArray extracted = extract_block(global, unaligned, {5, 7, 4});
  expect_same_chunks(extracted, generate_sparse_block(spec, unaligned));
  EXPECT_EQ(extracted.nnz(), 2465);
  EXPECT_EQ(layout_fingerprint(extracted), 0xe795d7690e9f2fa1ULL);
}

TEST(ExtractBlockTest, ZipfBlocksMatchGenerationChunkByChunk) {
  const SparseSpec spec = zipf_3d();
  const SparseArray global = generate_sparse_global(spec);
  const BlockRange aligned({5, 7, 4}, {35, 23, 19});
  const BlockRange unaligned({3, 2, 1}, {30, 20, 18});
  expect_same_chunks(extract_block(global, aligned, {5, 7, 4}),
                     generate_sparse_block(spec, aligned));
  expect_same_chunks(extract_block(global, unaligned, {5, 7, 4}),
                     generate_sparse_block(spec, unaligned));
  // Aligned bounds but a different chunking: the per-non-zero path.
  SparseSpec rechunked = spec;
  rechunked.chunk_extents = {3, 3, 3};
  const SparseArray extracted = extract_block(global, aligned, {3, 3, 3});
  expect_same_chunks(extracted, generate_sparse_block(rechunked, aligned));
  EXPECT_EQ(layout_fingerprint(extracted), 0x30cc330a72924010ULL);
}

}  // namespace
}  // namespace cubist
