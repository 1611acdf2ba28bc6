#include "core/cube_result.h"

#include "common/error.h"

namespace cubist {

Shape view_shape(const std::vector<std::int64_t>& sizes, DimSet view) {
  CUBIST_CHECK(view.is_subset_of(DimSet::full(static_cast<int>(sizes.size()))),
               "view " << view.to_string() << " out of lattice");
  std::vector<std::int64_t> extents;
  for (int d : view.dims()) {
    extents.push_back(sizes[static_cast<std::size_t>(d)]);
  }
  return Shape{std::move(extents)};
}

std::vector<int> kept_positions(DimSet parent, DimSet child) {
  CUBIST_CHECK(child.is_subset_of(parent),
               "view " << child.to_string() << " is not a subset of "
                       << parent.to_string());
  const std::vector<int> parent_dims = parent.dims();
  std::vector<int> kept;
  for (int pos = 0; pos < static_cast<int>(parent_dims.size()); ++pos) {
    if (child.contains(parent_dims[pos])) kept.push_back(pos);
  }
  return kept;
}

CubeResult::CubeResult(std::vector<std::int64_t> sizes)
    : sizes_(std::move(sizes)) {
  CUBIST_CHECK(!sizes_.empty() && sizes_.size() <= kMaxDims,
               "dimension count out of range");
}

void CubeResult::put(DimSet view, DenseArray array) {
  CUBIST_CHECK(array.shape() == view_shape(sizes_, view),
               "array shape does not match view " << view.to_string());
  views_.insert_or_assign(view.mask(), std::move(array));
}

const DenseArray& CubeResult::view(DimSet view) const {
  const auto it = views_.find(view.mask());
  CUBIST_CHECK(it != views_.end(),
               "view " << view.to_string() << " not materialized");
  return it->second;
}

DenseArray CubeResult::take(DimSet view) {
  auto it = views_.find(view.mask());
  CUBIST_CHECK(it != views_.end(),
               "view " << view.to_string() << " not materialized");
  DenseArray out = std::move(it->second);
  views_.erase(it);
  return out;
}

DenseArray& CubeResult::mutable_view(DimSet view) {
  const auto it = views_.find(view.mask());
  CUBIST_CHECK(it != views_.end(),
               "view " << view.to_string() << " not materialized");
  return it->second;
}

Value CubeResult::query(DimSet view_set,
                        const std::vector<std::int64_t>& coords) const {
  const DenseArray& array = view(view_set);
  CUBIST_CHECK(static_cast<int>(coords.size()) == view_set.size(),
               "coordinate count must match view dimensionality");
  return array.at(coords);
}

std::vector<DimSet> CubeResult::stored_views() const {
  std::vector<DimSet> out;
  out.reserve(views_.size());
  for (const auto& [mask, array] : views_) {
    out.push_back(DimSet::from_mask(mask));
  }
  return out;
}

}  // namespace cubist
