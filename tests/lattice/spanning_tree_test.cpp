#include "lattice/spanning_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "lattice/aggregation_tree.h"

namespace cubist {
namespace {

TEST(SpanningTreeTest, AggregationTreeRoundTrip) {
  for (int n = 1; n <= 8; ++n) {
    const SpanningTree tree = SpanningTree::aggregation(n);
    const AggregationTree reference(n);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      const DimSet view = DimSet::from_mask(mask);
      if (view != reference.root()) {
        EXPECT_EQ(tree.parent(view), reference.parent(view));
      }
      // Ascending masks are Figure 3's right-to-left order: the executor
      // walks children in this order to meet the Theorem-1 bound.
      std::vector<DimSet> right_to_left = reference.children(view);
      std::reverse(right_to_left.begin(), right_to_left.end());
      EXPECT_EQ(tree.children(view), right_to_left)
          << "n " << n << " view " << view.to_string();
    }
  }
}

TEST(SpanningTreeTest, MinimalParentTreeUsesMinimalParents) {
  const CubeLattice lattice({9, 5, 3, 2});
  const SpanningTree tree = SpanningTree::minimal_parent(lattice);
  EXPECT_TRUE(tree.uses_minimal_parents(lattice));
}

TEST(SpanningTreeTest, AggregationTreeMinimalIffSizesDescending) {
  // Theorem 7, at the spanning-tree level.
  EXPECT_TRUE(SpanningTree::aggregation(3).uses_minimal_parents(
      CubeLattice({8, 4, 2})));
  EXPECT_FALSE(SpanningTree::aggregation(3).uses_minimal_parents(
      CubeLattice({2, 4, 8})));
}

TEST(SpanningTreeTest, AllFromRootParentsAreRoot) {
  const SpanningTree tree = SpanningTree::all_from_root(3);
  for (std::uint32_t mask = 0; mask + 1 < (1u << 3); ++mask) {
    EXPECT_EQ(tree.parent(DimSet::from_mask(mask)), DimSet::full(3));
  }
  EXPECT_EQ(tree.children(DimSet::full(3)).size(), 7u);
  EXPECT_TRUE(tree.children(DimSet::of({0})).empty());
}

TEST(SpanningTreeTest, ChildrenInverseOfParent) {
  const CubeLattice lattice({6, 5, 4});
  for (const SpanningTree& tree :
       {SpanningTree::aggregation(3), SpanningTree::minimal_parent(lattice),
        SpanningTree::all_from_root(3)}) {
    std::size_t total_children = 0;
    for (std::uint32_t mask = 0; mask < (1u << 3); ++mask) {
      const DimSet view = DimSet::from_mask(mask);
      for (DimSet child : tree.children(view)) {
        EXPECT_EQ(tree.parent(child), view);
      }
      total_children += tree.children(view).size();
    }
    EXPECT_EQ(total_children, 7u);  // every proper view has one parent
  }
}

TEST(SpanningTreeTest, RootParentThrows) {
  EXPECT_THROW(SpanningTree::aggregation(3).parent(DimSet::full(3)),
               InvalidArgument);
}

TEST(SpanningTreeTest, MultiwayScanCostCountsInternalNodesOnce) {
  // n=2, sizes {4,3}: aggregation tree: root AB (children B, A),
  // B={1}? children of B: complement {0}, max 0 -> j>=1: j=1 in B -> child
  // {} ... verify against hand count: internal nodes are AB (12 cells) and
  // the dim-1 view {1} (3 cells) which computes `all`.
  const CubeLattice lattice({4, 3});
  const SpanningTree tree = SpanningTree::aggregation(2);
  EXPECT_EQ(tree.multiway_scan_cost(lattice), 12 + 3);
}

TEST(SpanningTreeTest, PerChildScanCostSumsParentSizes) {
  const CubeLattice lattice({4, 3});
  const SpanningTree tree = SpanningTree::aggregation(2);
  // Edges: AB->B (scan 12), AB->A (scan 12), B->all (scan 3).
  EXPECT_EQ(tree.per_child_scan_cost(lattice), 12 + 12 + 3);
  // All-from-root: every proper view scans the root.
  EXPECT_EQ(SpanningTree::all_from_root(2).per_child_scan_cost(lattice),
            3 * 12);
}

TEST(SpanningTreeTest, MultiwayNeverCostsMoreThanPerChild) {
  const CubeLattice lattice({7, 6, 5, 4});
  for (const SpanningTree& tree :
       {SpanningTree::aggregation(4), SpanningTree::minimal_parent(lattice)}) {
    EXPECT_LE(tree.multiway_scan_cost(lattice),
              tree.per_child_scan_cost(lattice));
  }
}

TEST(SpanningTreeTest, MmstPrefersChunkBoundedParents) {
  const CubeLattice lattice({16, 16, 16});
  const SpanningTree tree = SpanningTree::mmst(lattice, {4, 4, 4});
  // Every edge must still be an immediate superset.
  for (std::uint32_t mask = 0; mask + 1 < (1u << 3); ++mask) {
    const DimSet view = DimSet::from_mask(mask);
    const DimSet parent = tree.parent(view);
    EXPECT_TRUE(view.is_subset_of(parent));
    EXPECT_EQ(parent.size(), view.size() + 1);
  }
}

TEST(SpanningTreeTest, MmstRankMismatchThrows) {
  const CubeLattice lattice({16, 16});
  EXPECT_THROW(SpanningTree::mmst(lattice, {4}), InvalidArgument);
}

}  // namespace
}  // namespace cubist
