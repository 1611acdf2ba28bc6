// CubeResult: the materialized data cube — one dense aggregate array per
// lattice view, queryable by (view, coordinates).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "array/dense_array.h"
#include "common/dimset.h"

namespace cubist {

/// Shape of `view` in a cube of extents `sizes`: the retained extents in
/// ascending dimension order. Checks that `view` lies in the lattice.
Shape view_shape(const std::vector<std::int64_t>& sizes, DimSet view);

/// Positions, within `parent`'s ascending dimension list, of `child`'s
/// dimensions (the kept-position list of `project`). Checks that `child`
/// is a subset of `parent`.
std::vector<int> kept_positions(DimSet parent, DimSet child);

class CubeResult {
 public:
  /// `sizes` are the full-cube extents; views added later must have
  /// matching per-dimension extents.
  explicit CubeResult(std::vector<std::int64_t> sizes);

  int ndims() const { return static_cast<int>(sizes_.size()); }
  const std::vector<std::int64_t>& sizes() const { return sizes_; }

  /// Stores a view (asserts its shape matches the retained extents).
  void put(DimSet view, DenseArray array);

  bool has(DimSet view) const { return views_.count(view.mask()) != 0; }
  /// Number of views stored (the complete cube has 2^n, incl. the root).
  std::size_t num_views() const { return views_.size(); }

  const DenseArray& view(DimSet view) const;

  /// Removes and returns a stored view (for consumers that repackage the
  /// cube, e.g. the tiled builder stitching slab results).
  DenseArray take(DimSet view);

  /// Mutable access (e.g. stitching slab portions into a full view).
  DenseArray& mutable_view(DimSet view);

  /// Group-by lookup: the aggregate for `view` at the given coordinates
  /// (one coordinate per retained dimension, ascending dimension order;
  /// empty for the `all` scalar).
  Value query(DimSet view, const std::vector<std::int64_t>& coords) const;

  /// Masks of all stored views, ascending.
  std::vector<DimSet> stored_views() const;

  /// Exact equality over a common view set (both cubes must store the
  /// same views). Values are integer-exact by construction, so this is a
  /// meaningful bitwise comparison.
  bool operator==(const CubeResult&) const = default;

 private:
  std::vector<std::int64_t> sizes_;
  std::map<std::uint32_t, DenseArray> views_;
};

}  // namespace cubist
