// The one aggregation-tree executor behind every full-cube builder.
//
// Walks a SpanningTree depth first from the root. Each internal node is
// scanned to produce its children, which are then finished one by one in
// the tree's stored order (ascending mask). For SpanningTree::aggregation
// that is Figure 3's right-to-left order, the one behind the Theorem-1
// memory bound. Finishing a child either descends into it and writes it
// back after its subtree, or drops it when the client's `keep` hook says
// so (Figure 5's non-lead ranks). A node is live from its scan until its
// write-back or drop; a MemoryLedger tracks those bytes, so
// BuildStats::peak_live_bytes is exactly what Theorems 1 and 4 bound.
//
// Clients: build_cube_sequential (Figure 3), build_cube_parallel_rank
// (Figure 5: `keep` reduces the child over its axis group and keeps it on
// the lead) and build_cube_with_tree (prior-work trees and disciplines).
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "array/aggregate.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "common/dimset.h"
#include "lattice/spanning_tree.h"

namespace cubist {

enum class ScanDiscipline {
  /// One scan of each internal node produces all its children at once
  /// (what the aggregation tree enables; every edge must drop exactly
  /// one dimension).
  kMultiWay,
  /// Every child triggers its own `project` of its parent (the discipline
  /// of single-aggregate algorithms; any tree, SUM only).
  kPerChild,
};

/// Work and memory accounting of one construction run.
struct BuildStats {
  /// High-water mark of live computed views, in bytes (input excluded —
  /// the quantity bounded by Theorems 1 and 4).
  std::int64_t peak_live_bytes = 0;
  /// Total bytes written back (every kept view exactly once).
  std::int64_t written_bytes = 0;
  /// Input/intermediate cells scanned across all evaluation steps.
  std::int64_t cells_scanned = 0;
  /// Aggregation updates performed.
  std::int64_t updates = 0;
  /// Transient scan scratch bytes: always 0. The owner-computes kernels
  /// write every child cell in place; kept for existing readers.
  std::int64_t peak_scratch_bytes = 0;
};

/// What a client adds to the walk. Empty hooks are skipped.
struct TreeHooks {
  /// Called after every scan with its work counts.
  std::function<void(const AggregationStats&)> on_scan;
  /// Called once `child`'s block holds its scan of `parent`, before
  /// descending into it. Returning false drops the child: its block is
  /// released unwritten and its subtree is skipped.
  std::function<bool(DimSet parent, DimSet child, DenseArray& block)> keep;
};

/// Builds every view of `tree` below its root from `root`, under
/// `options.op` (`options.input_level` is set per scan: true only for the
/// root's scans). Returns the written-back views, finalized, keyed by
/// mask. Results are bit-identical for every pool setting in `options`.
std::map<std::uint32_t, DenseArray> execute_tree(
    const SpanningTree& tree, const DenseArray& root,
    ScanDiscipline discipline, const AggregateOptions& options,
    const TreeHooks& hooks = {}, BuildStats* stats = nullptr);
std::map<std::uint32_t, DenseArray> execute_tree(
    const SpanningTree& tree, const SparseArray& root,
    ScanDiscipline discipline, const AggregateOptions& options,
    const TreeHooks& hooks = {}, BuildStats* stats = nullptr);

}  // namespace cubist
