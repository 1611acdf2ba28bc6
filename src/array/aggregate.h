// Simultaneous multi-way aggregation kernels.
//
// The central operation of cube construction with maximal cache and memory
// reuse: ONE scan of a parent array updates ALL of its children at once
// (paper §1 "Cache and Memory Reuse"). A child is the parent with exactly
// one dimension aggregated away (summed over).
//
// Kernels are expressed in *position space*: a target names the position of
// the aggregated dimension within the parent's dimension list. The lattice
// layer maps DimSets to positions.
//
// Every kernel is generic over the aggregate operator (SUM, COUNT, MIN,
// MAX; array/aggregate_op.h), chosen per scan by AggregateOptions::op.
//
// Large scans run on the shared ThreadPool owner-computes (see
// docs/PERFORMANCE.md): every child cell is written by exactly one task,
// and that task visits the units (parent rows or chunks) feeding the cell
// in ascending unit order. Each cell therefore combines its contributions
// in serial scan order however the scan is split, so the result is
// bit-identical for any CUBIST_THREADS setting, under every operator, with
// no scratch buffers and no merge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "array/aggregate_op.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"

namespace cubist {

class ThreadPool;

/// One child to produce during a parent scan.
struct AggregationTarget {
  /// Position (0-based, within the parent's dimension list) of the
  /// dimension summed away.
  int aggregated_pos;
  /// Output array; its shape must equal parent.shape().without_dim(pos).
  /// Cells are combined into under the scan's operator (+= for SUM), so
  /// callers can aggregate several parents into one child if they wish;
  /// the cube builder fills children with the operator's identity.
  DenseArray* child;
};

/// Work accounting returned by the kernels; feeds the virtual-time model.
struct AggregationStats {
  /// Cells of the parent visited (dense: shape.size(); sparse: nnz).
  std::int64_t cells_scanned = 0;
  /// Individual `child (op)= value` updates performed
  /// (= cells * #targets).
  std::int64_t updates = 0;

  AggregationStats& operator+=(const AggregationStats& o) {
    cells_scanned += o.cells_scanned;
    updates += o.updates;
    return *this;
  }
};

/// Execution knobs of one scan (defaults reproduce the global policy).
struct AggregateOptions {
  /// Pool to split the scan over; nullptr = ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// Extra cap on the scan's concurrency on top of the pool's own
  /// size() / active_ranks() budget (0 = no extra cap). The parallel
  /// builder sets this to its per-rank worker budget.
  int max_workers = 0;
  /// Operator the scan combines under.
  AggregateOp op = AggregateOp::kSum;
  /// Cell semantics of a dense parent: true = raw input (a 0 cell is
  /// empty and contributes the identity; COUNT counts non-empty cells),
  /// false = a live aggregate view whose empty cells already hold the
  /// identity. Sparse parents are always raw input (COUNT counts stored
  /// cells). SUM results do not depend on it.
  bool input_level = true;
};

// --- owner-computes split policy (shared by the kernels and the tests;
// --- see docs/PERFORMANCE.md) ---

/// Scans with fewer cells (dense: size; sparse: nnz) run as one inline
/// pass on the caller.
inline constexpr std::int64_t kMinCellsToSplit = 1 << 14;
/// Tasks per pass a split scan aims at, per worker of the thread budget.
inline constexpr std::int64_t kTasksPerWorker = 4;

/// How one scan is split into tasks. The units of a scan form a row-major
/// grid: a dense parent's rows (gridded by its outer dimensions) or a
/// sparse parent's chunks. Each target aggregates one grid dimension; a
/// dense innermost target aggregates none (its grid dimension is
/// grid.ndim()). Pass 1 splits the leading grid dimensions [0, lead_end)
/// and runs every target that keeps them, so its tasks write disjoint
/// regions of those children. Pass 2 runs the remaining targets split by
/// dimensions [lead_end, owned_end); each task walks all leading slabs in
/// ascending order.
struct ScanSplit {
  /// End of the pass-1 split dimensions; 0 = one inline pass, all targets.
  int lead_end = 0;
  /// End of the pass-2 split dimensions (== lead_end: pass 2 is one task).
  int owned_end = 0;
  /// Tasks of each pass (0 when the pass has no target). The inline pass
  /// counts as one pass-1 task.
  std::int64_t pass1_tasks = 1;
  std::int64_t pass2_tasks = 0;
  /// Per target: 1 = it aggregates a leading dimension, so runs in pass 2.
  std::vector<std::uint8_t> pass2;
};

/// The split of a scan over `grid` whose targets aggregate `grid_dims`,
/// for a thread budget of `budget` and `work_cells` cells of work. A pure
/// function of its arguments; the output of the scan does not depend on it.
ScanSplit plan_scan_split(const Shape& grid, std::span<const int> grid_dims,
                          int budget, std::int64_t work_cells);

/// Scans a dense parent once, combining into every target simultaneously
/// under options.op. Split over the pool per plan_scan_split on the
/// parent's rows; bit-identical results for any pool size.
AggregationStats aggregate_children(const DenseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options = {});

/// Scans a chunk-offset sparse parent once, combining into every target
/// under options.op. Walks each chunk row by row with split offset tables
/// (about sqrt(chunk volume) entries per target, per distinct chunk
/// shape), so a non-zero costs one table lookup and one combine per
/// target. Split over the pool per plan_scan_split on the chunk grid;
/// bit-identical results for any pool size.
AggregationStats aggregate_children(const SparseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options = {});

/// Generic projection: aggregates away every parent dimension NOT listed
/// in `kept_positions` (ascending positions into the parent's dimension
/// list) in a single scan. `out` must have the kept extents and is
/// accumulated into under SUM. Used by the MMST/MNST tree baselines, the
/// reference verifier, PartialCube::build (each selected view from its
/// smallest materialized ancestor) and the serving miss path
/// (PartialCube::materialize_from). The dense overload is a scalar path
/// independent of the multi-way kernels; the sparse one runs the sparse
/// multi-way kernel inline with a single multi-dimension SUM target.
AggregationStats project(const DenseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out);
AggregationStats project(const SparseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out);

}  // namespace cubist
