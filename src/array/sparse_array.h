// SparseArray: the paper's chunk-offset compressed sparse format (§6).
//
// The array is divided into chunks. Each chunk stores only its non-zero
// cells, as parallel vectors of (offset within the chunk, value); the offset
// is the row-major linear index relative to the chunk's own extents. This is
// exactly the "chunk-offset compression" of Zhao et al. that the paper's
// experiments use for the input dataset.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "array/dense_array.h"
#include "array/shape.h"

namespace cubist {

class SparseArray {
 public:
  /// Offsets within a chunk are 32-bit: chunk volume must stay < 2^32.
  using Offset = std::uint32_t;

  /// An empty sparse array with the given global shape, chunked by
  /// `chunk_extents` (clipped at the array boundary).
  SparseArray(Shape shape, std::vector<std::int64_t> chunk_extents);

  /// Compresses a dense array; cells equal to 0 are dropped. Throws
  /// InvalidArgument on a NaN or infinite cell, as push() does.
  static SparseArray from_dense(const DenseArray& dense,
                                std::vector<std::int64_t> chunk_extents);

  const Shape& shape() const { return shape_; }
  int ndim() const { return shape_.ndim(); }
  const std::vector<std::int64_t>& chunk_extents() const {
    return chunk_extents_;
  }
  /// Shape of the chunk grid (number of chunks along each dimension).
  const Shape& chunk_grid() const { return chunk_grid_; }
  std::int64_t num_chunks() const { return chunk_grid_.size(); }

  std::int64_t nnz() const { return nnz_; }
  /// Fraction of cells that are non-zero (the paper's "sparsity" knob).
  double density() const {
    return static_cast<double>(nnz_) / static_cast<double>(shape_.size());
  }
  /// Heap footprint: offsets + values.
  std::int64_t bytes() const {
    return nnz_ * static_cast<std::int64_t>(sizeof(Offset) + sizeof(Value));
  }

  /// Appends a non-zero cell. Within one chunk, cells must arrive in
  /// ascending offset order (global row-major iteration guarantees this);
  /// `finalize()` verifies. Zero values are dropped silently. Throws
  /// InvalidArgument on NaN and +-inf: values must be finite, since the
  /// MIN/MAX identities are +-inf and the wire codec skips identities.
  void push(const std::int64_t* index, Value value);
  void push(const std::vector<std::int64_t>& index, Value value) {
    CUBIST_CHECK(static_cast<int>(index.size()) == ndim(),
                 "index rank mismatch");
    push(index.data(), value);
  }

  /// Replaces chunk `chunk_id`'s non-zeros with `values[i]` at chunk
  /// offset `offsets[i]` (row-major within the chunk's clipped extents).
  /// Throws InvalidArgument after `finalize()`, on a bad chunk id, on
  /// mismatched sizes, on any offset >= the chunk's volume and on a
  /// non-finite value. Zero values
  /// are dropped, as in push(); ordering and duplicates are left to
  /// `finalize()`, which sorts a chunk that arrived out of order.
  void assign_chunk(std::int64_t chunk_id, std::vector<Offset> offsets,
                    std::vector<Value> values);

  /// Validates per-chunk offset ordering (sorting a chunk whose cells
  /// arrived out of order) and rejects duplicate offsets; call once after
  /// the last push() / assign_chunk().
  void finalize();

  /// Invokes fn(index, value) for every non-zero, in chunk order.
  /// `index` points at ndim() global coordinates, valid during the call.
  template <typename Fn>
  void for_each_nonzero(Fn&& fn) const;

  /// Decompresses to a dense array (test/debug aid).
  DenseArray to_dense() const;

  // --- chunk-level access, used by the fast aggregation kernel ---

  /// Extents of the chunk at chunk-grid coordinates `chunk_coords`
  /// (interior chunks get `chunk_extents()`, boundary chunks are clipped).
  std::vector<std::int64_t> chunk_shape_at(
      const std::vector<std::int64_t>& chunk_coords) const;

  /// Global coordinates of the chunk's origin cell.
  std::vector<std::int64_t> chunk_base(
      const std::vector<std::int64_t>& chunk_coords) const;

  /// True if the chunk has the full `chunk_extents()` shape.
  bool chunk_is_full(const std::vector<std::int64_t>& chunk_coords) const;

  std::span<const Offset> chunk_offsets(std::int64_t chunk_id) const {
    return chunks_[static_cast<std::size_t>(chunk_id)].offsets;
  }
  std::span<const Value> chunk_values(std::int64_t chunk_id) const {
    return chunks_[static_cast<std::size_t>(chunk_id)].values;
  }

 private:
  struct Chunk {
    std::vector<Offset> offsets;
    std::vector<Value> values;
  };

  /// Chunk grid coordinates and within-chunk offset of a global index.
  std::int64_t locate(const std::int64_t* index, Offset* offset_out) const;

  Shape shape_;
  std::vector<std::int64_t> chunk_extents_;
  Shape chunk_grid_;
  std::vector<Chunk> chunks_;
  std::int64_t nnz_ = 0;
  bool finalized_ = false;
};

template <typename Fn>
void SparseArray::for_each_nonzero(Fn&& fn) const {
  const int n = ndim();
  std::vector<std::int64_t> chunk_coords(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> index(static_cast<std::size_t>(n), 0);
  for (std::int64_t chunk_id = 0; chunk_id < num_chunks(); ++chunk_id) {
    chunk_grid_.unravel(chunk_id, chunk_coords.data());
    const auto base = chunk_base(chunk_coords);
    const Shape local_shape{chunk_shape_at(chunk_coords)};
    const Chunk& chunk = chunks_[static_cast<std::size_t>(chunk_id)];
    for (std::size_t i = 0; i < chunk.offsets.size(); ++i) {
      local_shape.unravel(static_cast<std::int64_t>(chunk.offsets[i]),
                          index.data());
      for (int d = 0; d < n; ++d) {
        index[d] += base[d];
      }
      fn(static_cast<const std::int64_t*>(index.data()), chunk.values[i]);
    }
  }
}

}  // namespace cubist
