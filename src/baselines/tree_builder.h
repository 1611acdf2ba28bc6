// Cube construction over an arbitrary spanning tree — the baseline engine.
//
// Lets the bench suite compare the aggregation tree against prior-work
// trees (MMST, MNST/minimal-parent, naive all-from-root) under the two
// scan disciplines of core/tree_executor.h:
//   * kMultiWay  — one scan of each internal node produces all its
//     children simultaneously (what the aggregation tree enables; only
//     valid when every edge drops exactly one dimension);
//   * kPerChild  — every child triggers its own scan of its parent (the
//     discipline of single-aggregate algorithms; works for any tree,
//     including multi-dimension hops like all-from-root).
// The walk is the main builders' executor, so memory accounting matches
// them: a node is live from its computation until its write-back, which
// happens after its last child is computed.
#pragma once

#include <cstdint>

#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "core/cube_result.h"
#include "core/sequential_builder.h"
#include "core/tree_executor.h"
#include "lattice/spanning_tree.h"

namespace cubist {

/// Builds the full SUM cube along `tree`. With kMultiWay, every edge of
/// the tree must drop exactly one dimension (CHECK-enforced).
CubeResult build_cube_with_tree(const DenseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline,
                                BuildStats* stats = nullptr);
CubeResult build_cube_with_tree(const SparseArray& root,
                                const SpanningTree& tree,
                                ScanDiscipline discipline,
                                BuildStats* stats = nullptr);

}  // namespace cubist
