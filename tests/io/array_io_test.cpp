#include "io/array_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "io/generators.h"
#include "test_util.h"

namespace cubist {
namespace {

class ArrayIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return ::testing::TempDir() + "cubist_io_" + name;
  }
  void TearDown() override {
    for (const std::string& p : created_) {
      std::remove(p.c_str());
    }
  }
  std::string track(std::string p) {
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(ArrayIoTest, DenseRoundTrip) {
  const DenseArray original = testing::random_dense({5, 4, 3}, 0.5, 7);
  const std::string file = track(path("dense.bin"));
  write_dense(original, file);
  EXPECT_EQ(read_dense(file), original);
}

TEST_F(ArrayIoTest, DenseScalarRoundTrip) {
  DenseArray scalar{Shape{std::vector<std::int64_t>{1}}};
  scalar[0] = 3.5;
  const std::string file = track(path("scalar.bin"));
  write_dense(scalar, file);
  EXPECT_EQ(read_dense(file), scalar);
}

TEST_F(ArrayIoTest, SparseRoundTrip) {
  SparseSpec spec;
  spec.sizes = {9, 7, 5};
  spec.density = 0.3;
  spec.seed = 3;
  const SparseArray original = generate_sparse_global(spec);
  const std::string file = track(path("sparse.bin"));
  write_sparse(original, file);
  const SparseArray loaded = read_sparse(file);
  EXPECT_EQ(loaded.nnz(), original.nnz());
  EXPECT_EQ(loaded.shape(), original.shape());
  EXPECT_EQ(loaded.chunk_extents(), original.chunk_extents());
  EXPECT_EQ(loaded.to_dense(), original.to_dense());
}

TEST_F(ArrayIoTest, EmptySparseRoundTrip) {
  const SparseArray original{Shape{{4, 4}}, {2, 2}};
  const std::string file = track(path("empty.bin"));
  write_sparse(original, file);
  EXPECT_EQ(read_sparse(file).nnz(), 0);
}

TEST_F(ArrayIoTest, WrongMagicRejected) {
  const std::string file = track(path("magic.bin"));
  {
    std::ofstream out(file, std::ios::binary);
    out << "NOPE nonsense";
  }
  EXPECT_THROW(read_dense(file), InvalidArgument);
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, CrossFormatMagicRejected) {
  const DenseArray dense = testing::random_dense({4}, 0.5, 1);
  const std::string file = track(path("cross.bin"));
  write_dense(dense, file);
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, TruncatedFileRejected) {
  const DenseArray dense = testing::random_dense({16, 16}, 0.5, 2);
  const std::string file = track(path("trunc.bin"));
  write_dense(dense, file);
  // Chop the file in half.
  std::ifstream in(file, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(read_dense(file), InvalidArgument);
}

/// Appends the raw bytes of `value` to `bytes` (little hand-built headers).
template <typename T>
void put(std::string& bytes, const T& value) {
  bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
}

std::string header(const char magic[4], std::vector<std::int64_t> extents) {
  std::string bytes(magic, 4);
  put(bytes, std::uint32_t{1});  // format version
  put(bytes, static_cast<std::uint32_t>(extents.size()));
  for (const std::int64_t e : extents) put(bytes, e);
  return bytes;
}

void write_bytes(const std::string& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(ArrayIoTest, HostileDenseExtentsRejectedBeforeAllocating) {
  // 2^22 x 2^22 cells = 128 TiB declared by a 32-byte file.
  const std::string file = track(path("hostile_dense.bin"));
  write_bytes(file, header("CBDN", {std::int64_t{1} << 22,
                                    std::int64_t{1} << 22}));
  EXPECT_THROW(read_dense(file), InvalidArgument);
  // An extent product that overflows int64 is rejected the same way.
  write_bytes(file, header("CBDN", {std::int64_t{1} << 40,
                                    std::int64_t{1} << 40}));
  EXPECT_THROW(read_dense(file), InvalidArgument);
}

TEST_F(ArrayIoTest, HostileSparseChunkCountRejectedBeforeAllocating) {
  // One 4x4 chunk whose count claims 2^58 cells.
  std::string bytes = header("CBSP", {4, 4});
  put(bytes, std::int64_t{4});  // chunk extents
  put(bytes, std::int64_t{4});
  put(bytes, std::int64_t{1} << 58);
  const std::string file = track(path("hostile_sparse.bin"));
  write_bytes(file, bytes);
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, HostileSparseChunkGridRejectedBeforeAllocating) {
  // 2^44 unit chunks declared with no chunk data at all.
  std::string bytes =
      header("CBSP", {std::int64_t{1} << 22, std::int64_t{1} << 22});
  put(bytes, std::int64_t{1});
  put(bytes, std::int64_t{1});
  const std::string file = track(path("hostile_grid.bin"));
  write_bytes(file, bytes);
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

/// A 4x4 sparse file with one 4x4 chunk holding `offsets`/`values`.
std::string one_chunk_file(const std::vector<std::uint32_t>& offsets,
                           const std::vector<double>& values) {
  std::string bytes = header("CBSP", {4, 4});
  put(bytes, std::int64_t{4});  // chunk extents
  put(bytes, std::int64_t{4});
  put(bytes, static_cast<std::int64_t>(offsets.size()));
  for (const std::uint32_t offset : offsets) put(bytes, offset);
  for (const double value : values) put(bytes, value);
  return bytes;
}

TEST_F(ArrayIoTest, HostileSparseOffsetOutsideChunkRejected) {
  const std::string file = track(path("hostile_offset.bin"));
  write_bytes(file, one_chunk_file({3, 16}, {1.0, 2.0}));
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, HostileSparseDuplicateOffsetRejected) {
  const std::string file = track(path("hostile_duplicate.bin"));
  write_bytes(file, one_chunk_file({5, 2, 5}, {1.0, 2.0, 3.0}));
  EXPECT_THROW(read_sparse(file), InvalidArgument);
}

TEST_F(ArrayIoTest, HostileSparseNonFiniteValueRejected) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  const std::string file = track(path("hostile_non_finite.bin"));
  for (const double bad : bad_values) {
    write_bytes(file, one_chunk_file({1, 6}, {2.0, bad}));
    EXPECT_THROW(read_sparse(file), InvalidArgument) << bad;
  }
}

TEST_F(ArrayIoTest, UnsortedSparseChunkIsSortedAndZerosDropped) {
  const std::string file = track(path("unsorted.bin"));
  write_bytes(file, one_chunk_file({9, 0, 4, 7}, {9.0, 1.0, 0.0, 7.0}));
  const SparseArray loaded = read_sparse(file);
  EXPECT_EQ(loaded.nnz(), 3);
  const auto offsets = loaded.chunk_offsets(0);
  const auto values = loaded.chunk_values(0);
  EXPECT_EQ(std::vector<std::uint32_t>(offsets.begin(), offsets.end()),
            (std::vector<std::uint32_t>{0, 7, 9}));
  EXPECT_EQ(std::vector<double>(values.begin(), values.end()),
            (std::vector<double>{1.0, 7.0, 9.0}));
}

TEST_F(ArrayIoTest, MissingFileRejected) {
  EXPECT_THROW(read_dense(path("does_not_exist.bin")), InvalidArgument);
}

TEST_F(ArrayIoTest, CsvExportHasHeaderAndOneRowPerCell) {
  DenseArray view{Shape{{2, 2}}};
  view.at({0, 1}) = 5.0;
  const std::string file = track(path("view.csv"));
  write_view_csv(view, {"item", "branch"}, file);
  std::ifstream in(file);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], "item,branch,value");
  EXPECT_EQ(lines[2], "0,1,5");
}

TEST_F(ArrayIoTest, CsvHeaderRankValidated) {
  DenseArray view{Shape{{2, 2}}};
  EXPECT_THROW(write_view_csv(view, {"only_one"}, path("bad.csv")),
               InvalidArgument);
}

}  // namespace
}  // namespace cubist
