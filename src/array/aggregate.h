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
// Large scans run on the shared ThreadPool as deterministic stripes (see
// docs/PERFORMANCE.md): the parent is cut into cache-sized stripes whose
// geometry depends only on the array shape — never on the thread count —
// children that alias across stripes get stripe-private accumulators that
// are merged in fixed stripe order, so the result is bit-identical for any
// CUBIST_THREADS setting, under every operator.
#pragma once

#include <cstdint>
#include <span>

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
  /// Transient stripe-private accumulator bytes this scan allocated
  /// (0 for single-stripe scans). A high-water mark, not a sum: merging
  /// stats keeps the max, because the scratch of one scan is released
  /// before the next scan starts.
  std::int64_t scratch_bytes = 0;

  AggregationStats& operator+=(const AggregationStats& o) {
    cells_scanned += o.cells_scanned;
    updates += o.updates;
    scratch_bytes = scratch_bytes > o.scratch_bytes ? scratch_bytes
                                                    : o.scratch_bytes;
    return *this;
  }
};

/// Execution knobs of one scan (defaults reproduce the global policy).
struct AggregateOptions {
  /// Pool to stripe the scan over; nullptr = ThreadPool::global().
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

// --- deterministic stripe policy (shared by the kernels, the static
// --- memory analysis, and the tests; see docs/PERFORMANCE.md) ---

/// Most stripes a scan is ever cut into (the parallelism ceiling).
inline constexpr std::int64_t kMaxScanStripes = 16;
/// Scans smaller than one stripe of this many cells stay single-stripe.
inline constexpr std::int64_t kMinCellsPerStripe = 1 << 13;
/// Hard cap on the transient private-accumulator bytes of one scan; the
/// stripe count shrinks (ultimately to 1 = scalar) to respect it.
inline constexpr std::int64_t kScanScratchBudgetBytes =
    std::int64_t{64} << 20;

/// Deterministic decomposition of one scan: a function of shapes (and for
/// sparse scans the nonzero count) only — never of the thread count.
struct StripePlan {
  /// Number of stripes; 1 = scalar single-thread scan, no scratch.
  std::int64_t num_stripes = 1;
  /// Units per stripe (dense: parent rows; sparse: chunk-grid chunks).
  std::int64_t stripe_len = 0;
  /// Per target: does its child alias across stripes (and therefore need
  /// stripe-private accumulators)? Parallel stripes write direct,
  /// non-aliased targets concurrently into disjoint child regions.
  std::vector<std::uint8_t> aliased;
  /// num_stripes * sum of aliased child bytes (0 when num_stripes == 1).
  std::int64_t scratch_bytes = 0;
};

/// Stripe plan for a dense scan of `parent` over the given aggregated
/// positions. Units are parent rows (the fastest-varying dimension stays
/// whole so the inner loops remain contiguous).
StripePlan plan_dense_scan(const Shape& parent,
                           std::span<const int> aggregated_positions);

/// Stripe plan for a sparse chunk-offset scan; units are chunks of
/// `chunk_grid`. `work_cells` sizes the stripes (the kernel passes nnz;
/// pass parent.size() for a data-independent worst case).
StripePlan plan_sparse_scan(const Shape& parent, const Shape& chunk_grid,
                            std::span<const int> aggregated_positions,
                            std::int64_t work_cells);

/// Upper bound on the transient private-accumulator bytes ANY scan of
/// `parent` over these positions may allocate, independent of chunk
/// layout, nonzero count, and thread count:
/// min(kScanScratchBudgetBytes, kMaxScanStripes * sum of child bytes).
/// The static schedule analysis charges this per planned scan
/// (`bytes_per_cell` mirrors ScheduleSpec's knob; the kernels use
/// sizeof(Value)).
std::int64_t scan_scratch_bound(
    const Shape& parent, std::span<const int> aggregated_positions,
    std::int64_t bytes_per_cell = static_cast<std::int64_t>(sizeof(Value)));

/// Scans a dense parent once, combining into every target simultaneously
/// under options.op. Striped over the pool per plan_dense_scan;
/// bit-identical results for any pool size.
AggregationStats aggregate_children(const DenseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options = {});

/// Scans a chunk-offset sparse parent once, combining into every target
/// under options.op. Uses a per-chunk-shape offset table so interior
/// chunks cost one lookup and one combine per (non-zero, target).
/// Striped over whole chunks per plan_sparse_scan; bit-identical results
/// for any pool size.
AggregationStats aggregate_children(const SparseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options = {});

/// Generic projection: aggregates away every parent dimension NOT listed
/// in `kept_positions` (ascending positions into the parent's dimension
/// list) in a single scan. `out` must have the kept extents and is
/// accumulated into. Used by the naive all-from-root baseline and the
/// reference verifier — deliberately an independent code path from the
/// multi-way kernels (and deliberately scalar).
AggregationStats project(const DenseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out);
AggregationStats project(const SparseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out);

}  // namespace cubist
