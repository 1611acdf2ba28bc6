#include "baselines/tree_builder.h"

#include "common/error.h"

namespace cubist {
namespace {

template <typename Root>
CubeResult build(const Root& root, const SpanningTree& tree,
                 ScanDiscipline discipline, BuildStats* stats) {
  CubeResult result(root.shape().extents());
  for (auto& [mask, view] :
       execute_tree(tree, root, discipline, AggregateOptions{}, {}, stats)) {
    result.put(DimSet::from_mask(mask), std::move(view));
  }
  CUBIST_ASSERT(result.num_views() + 1 == (std::size_t{1} << root.ndim()),
                "cube incomplete");
  return result;
}

}  // namespace

CubeResult build_cube_with_tree(const DenseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline, BuildStats* stats) {
  return build(root, tree, discipline, stats);
}

CubeResult build_cube_with_tree(const SparseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline, BuildStats* stats) {
  return build(root, tree, discipline, stats);
}

}  // namespace cubist
