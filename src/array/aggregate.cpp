#include "array/aggregate.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"

namespace cubist {
namespace {

// Child-array stride of each parent dimension, 0 for the aggregated one.
// The projected (child) linear index of a parent multi-index `idx` is then
// sum_d idx[d] * stride[d].
std::vector<std::int64_t> projection_strides(const Shape& parent_shape,
                                             const AggregationTarget& target) {
  const int m = parent_shape.ndim();
  CUBIST_CHECK(target.aggregated_pos >= 0 && target.aggregated_pos < m,
               "aggregated_pos out of range");
  CUBIST_CHECK(target.child != nullptr, "null child array");
  CUBIST_CHECK(target.child->shape() ==
                   parent_shape.without_dim(target.aggregated_pos),
               "child shape mismatch for aggregated_pos "
                   << target.aggregated_pos);
  std::vector<std::int64_t> strides(static_cast<std::size_t>(m), 0);
  int child_dim = 0;
  for (int d = 0; d < m; ++d) {
    if (d == target.aggregated_pos) continue;
    strides[d] = target.child->shape().stride(child_dim);
    ++child_dim;
  }
  return strides;
}

std::vector<std::vector<std::int64_t>> projection_strides(
    const Shape& parent_shape, std::span<const AggregationTarget> targets) {
  std::vector<std::vector<std::int64_t>> strides;
  strides.reserve(targets.size());
  for (const AggregationTarget& target : targets) {
    strides.push_back(projection_strides(parent_shape, target));
  }
  return strides;
}

ThreadPool& pool_of(const AggregateOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::global();
}

/// Calls `scan(std::integral_constant<AggregateOp, op>{})`: the one
/// operator dispatch per scan, so every kernel below is compiled per
/// operator with `combine` resolved at compile time.
template <typename Scan>
AggregationStats dispatch_op(AggregateOp op, const Scan& scan) {
  using enum AggregateOp;
  switch (op) {
    case kSum:
      return scan(std::integral_constant<AggregateOp, kSum>{});
    case kCount:
      return scan(std::integral_constant<AggregateOp, kCount>{});
    case kMin:
      return scan(std::integral_constant<AggregateOp, kMin>{});
    case kMax:
      return scan(std::integral_constant<AggregateOp, kMax>{});
  }
  CUBIST_ASSERT(false, "unknown aggregate operator");
  return {};
}

/// One target as the unit scans see it. Built once per scan; the passes
/// hand subsets of these to their tasks, so per-target tables are shared
/// by pointer, never copied.
struct KernelTarget {
  /// The child array's cells.
  Value* base = nullptr;
  /// Child stride per parent dimension (0 for the aggregated one).
  const std::int64_t* strides = nullptr;
  /// Sparse only: projected child offset of every cell of a full chunk,
  /// or nullptr when boundary-style decoding is used everywhere.
  const std::int64_t* chunk_offsets = nullptr;
};

/// The units one task scans, in this order: `count` runs of `len` units,
/// run i starting at unit `first + i * stride` (ascending, disjoint).
struct UnitRuns {
  std::int64_t first = 0;
  std::int64_t len = 0;
  std::int64_t stride = 0;
  std::int64_t count = 1;
};

/// Runs `scan(runs, targets)` over the units of `grid` (row-major) per
/// plan_scan_split: every child cell is written by exactly one task, which
/// visits the units feeding it in ascending order. Both passes run as one
/// pool job; pass-1 and pass-2 tasks write different children.
template <typename Scan>
void run_owner_computes(const Shape& grid, std::int64_t work_cells,
                        std::span<const AggregationTarget> targets,
                        std::span<const KernelTarget> kernel_targets,
                        const AggregateOptions& options, const Scan& scan) {
  const std::int64_t units = grid.size();
  if (units == 0) return;
  ThreadPool& pool = pool_of(options);
  std::vector<int> grid_dims;
  grid_dims.reserve(targets.size());
  for (const AggregationTarget& target : targets) {
    grid_dims.push_back(target.aggregated_pos);
  }
  const ScanSplit split = plan_scan_split(
      grid, grid_dims, pool.budget(options.max_workers), work_cells);
  if (split.lead_end == 0) {
    scan(UnitRuns{.len = units}, kernel_targets);
    return;
  }
  std::vector<KernelTarget> pass1;
  std::vector<KernelTarget> pass2;
  for (std::size_t c = 0; c < kernel_targets.size(); ++c) {
    (split.pass2[c] != 0 ? pass2 : pass1).push_back(kernel_targets[c]);
  }
  std::int64_t lead = 1;  // leading slabs
  for (int d = 0; d < split.lead_end; ++d) lead *= grid.extent(d);
  std::int64_t owned = 1;  // pass-2 owned indices per slab
  for (int d = split.lead_end; d < split.owned_end; ++d) {
    owned *= grid.extent(d);
  }
  const std::int64_t slab = units / lead;
  const std::int64_t run = slab / owned;
  pool.parallel_for(
      0, split.pass1_tasks + split.pass2_tasks, 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t task = lo; task < hi; ++task) {
          if (task < split.pass1_tasks) {
            // Leading slabs [s0, s1): one contiguous run of units.
            const std::int64_t s0 = task * lead / split.pass1_tasks;
            const std::int64_t s1 = (task + 1) * lead / split.pass1_tasks;
            scan(UnitRuns{.first = s0 * slab, .len = (s1 - s0) * slab},
                 std::span<const KernelTarget>(pass1));
            continue;
          }
          // Owned indices [o0, o1) of every leading slab, slab by slab.
          const std::int64_t t = task - split.pass1_tasks;
          const std::int64_t o0 = t * owned / split.pass2_tasks;
          const std::int64_t o1 = (t + 1) * owned / split.pass2_tasks;
          scan(UnitRuns{.first = o0 * run,
                        .len = (o1 - o0) * run,
                        .stride = slab,
                        .count = lead},
               std::span<const KernelTarget>(pass2));
        }
      },
      options.max_workers);
}

/// One target's state during a dense row scan.
struct ScanTarget {
  Value* base = nullptr;
  /// Child stride per parent dimension (0 for the aggregated one).
  const std::int64_t* strides = nullptr;
  /// Projected child index of the current row's first cell.
  std::int64_t row_start = 0;
};

/// Scans the parent rows of `runs`, combining into every target. Rows go
/// in ascending order, so per child cell the contributions of these rows
/// arrive in ascending row order. The inner loops are
/// specialized for the dominant cases: a row reduction for the
/// innermost-dimension target (delta 0) and contiguous vector combines
/// for every other target (delta 1), issued jointly for up to three
/// targets so the parent row is read once. With `map_input` (input-level
/// scans of non-SUM operators) each row is mapped as it is loaded: an
/// empty 0 becomes the identity and COUNT turns every other cell into 1.
template <AggregateOp Op>
void scan_dense_rows(const Value* parent_data, const Shape& outer,
                     std::int64_t inner, const UnitRuns& runs,
                     std::span<const KernelTarget> kernel_targets,
                     bool map_input) {
  const int od = outer.ndim();
  const int m = od + 1;
  std::vector<std::int64_t> idx(static_cast<std::size_t>(od), 0);
  std::vector<ScanTarget> targets(kernel_targets.size());
  for (std::size_t c = 0; c < targets.size(); ++c) {
    targets[c].base = kernel_targets[c].base;
    targets[c].strides = kernel_targets[c].strides;
  }
  // Split targets by their inner-dimension delta: 0 = the aggregated
  // dimension is the innermost (row reduction), 1 = contiguous row combine.
  std::vector<ScanTarget*> reduce_targets;
  std::vector<ScanTarget*> vec_targets;
  for (ScanTarget& t : targets) {
    const std::int64_t delta = t.strides[m - 1];
    CUBIST_DCHECK(delta == 0 || delta == 1,
                  "inner-dimension child stride must be 0 or 1, got "
                      << delta);
    (delta == 0 ? reduce_targets : vec_targets).push_back(&t);
  }
  std::vector<Value> mapped;
  if constexpr (Op != AggregateOp::kSum) {
    if (map_input) mapped.resize(static_cast<std::size_t>(inner));
  }

  for (std::int64_t run = 0; run < runs.count; ++run) {
    const std::int64_t row_begin = runs.first + run * runs.stride;
    outer.unravel(row_begin, idx.data());
    for (ScanTarget& t : targets) {
      t.row_start = 0;
      for (int d = 0; d < od; ++d) t.row_start += idx[d] * t.strides[d];
    }
    const Value* cell = parent_data + row_begin * inner;
    for (std::int64_t r = 0; r < runs.len; ++r) {
      const Value* in = cell;
      if constexpr (Op != AggregateOp::kSum) {
        if (map_input) {
          for (std::int64_t i = 0; i < inner; ++i) {
            mapped[static_cast<std::size_t>(i)] =
                cell[i] == Value{0} ? identity_of(Op)
                                    : contribution_of(Op, cell[i]);
          }
          in = mapped.data();
        }
      }
      if (!reduce_targets.empty()) {
        Value acc = identity_of(Op);  // fixed left-to-right order
        for (std::int64_t i = 0; i < inner; ++i) combine(Op, acc, in[i]);
        for (ScanTarget* t : reduce_targets) {
          combine(Op, t->base[t->row_start], acc);
        }
      }
      switch (vec_targets.size()) {
        case 0:
          break;
        case 1: {
          Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
          for (std::int64_t i = 0; i < inner; ++i) combine(Op, o0[i], in[i]);
          break;
        }
        case 2: {
          Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
          Value* o1 = vec_targets[1]->base + vec_targets[1]->row_start;
          for (std::int64_t i = 0; i < inner; ++i) {
            const Value v = in[i];
            combine(Op, o0[i], v);
            combine(Op, o1[i], v);
          }
          break;
        }
        case 3: {
          Value* o0 = vec_targets[0]->base + vec_targets[0]->row_start;
          Value* o1 = vec_targets[1]->base + vec_targets[1]->row_start;
          Value* o2 = vec_targets[2]->base + vec_targets[2]->row_start;
          for (std::int64_t i = 0; i < inner; ++i) {
            const Value v = in[i];
            combine(Op, o0[i], v);
            combine(Op, o1[i], v);
            combine(Op, o2[i], v);
          }
          break;
        }
        default:
          for (ScanTarget* t : vec_targets) {
            Value* out = t->base + t->row_start;
            for (std::int64_t i = 0; i < inner; ++i) {
              combine(Op, out[i], in[i]);
            }
          }
          break;
      }
      cell += inner;
      // Odometer over the outer dimensions, updating each row start.
      for (int d = od - 1; d >= 0; --d) {
        ++idx[d];
        if (idx[d] < outer.extent(d)) {
          for (ScanTarget& t : targets) t.row_start += t.strides[d];
          break;
        }
        idx[d] = 0;
        for (ScanTarget& t : targets) {
          t.row_start -= (outer.extent(d) - 1) * t.strides[d];
        }
      }
    }
  }
}

}  // namespace

ScanSplit plan_scan_split(const Shape& grid, std::span<const int> grid_dims,
                          int budget, std::int64_t work_cells) {
  const int k = grid.ndim();
  ScanSplit split;
  split.pass2.assign(grid_dims.size(), 0);
  for (const int d : grid_dims) {
    CUBIST_CHECK(d >= 0 && d <= k, "grid dimension " << d << " out of range");
  }
  if (budget <= 1 || work_cells < kMinCellsToSplit || k == 0 ||
      grid.size() <= 1) {
    return split;
  }
  const std::int64_t want = kTasksPerWorker * budget;
  // Pass 1: the fewest leading dimensions that give `want` slabs.
  std::int64_t lead = grid.extent(0);
  split.lead_end = 1;
  while (lead < want && split.lead_end < k) {
    lead *= grid.extent(split.lead_end++);
  }
  // Pass 2: the fewest following dimensions that give `want` owners.
  std::int64_t owned = 1;
  split.owned_end = split.lead_end;
  while (owned < want && split.owned_end < k) {
    owned *= grid.extent(split.owned_end++);
  }
  bool any_pass1 = false;
  bool any_pass2 = false;
  for (std::size_t c = 0; c < grid_dims.size(); ++c) {
    split.pass2[c] = grid_dims[c] < split.lead_end ? 1 : 0;
    (split.pass2[c] != 0 ? any_pass2 : any_pass1) = true;
  }
  split.pass1_tasks = any_pass1 ? std::min(lead, want) : 0;
  split.pass2_tasks = any_pass2 ? std::min(owned, want) : 0;
  return split;
}

namespace {

/// Binds each target's child and projection strides for the unit scans.
std::vector<KernelTarget> kernel_targets_of(
    std::span<const AggregationTarget> targets,
    const std::vector<std::vector<std::int64_t>>& strides) {
  std::vector<KernelTarget> bound(targets.size());
  for (std::size_t c = 0; c < targets.size(); ++c) {
    bound[c].base = targets[c].child->data();
    bound[c].strides = strides[c].data();
  }
  return bound;
}

template <AggregateOp Op>
AggregationStats aggregate_dense(const DenseArray& parent,
                                 std::span<const AggregationTarget> targets,
                                 const AggregateOptions& options) {
  const int m = parent.ndim();
  const std::vector<std::vector<std::int64_t>> strides =
      projection_strides(parent.shape(), targets);
  const std::int64_t inner = parent.shape().extent(m - 1);
  // Units are rows: the grid is the outer dimensions, and the innermost
  // target's position m - 1 is the grid's "no dimension".
  const Shape outer = parent.shape().without_dim(m - 1);
  run_owner_computes(outer, parent.size(), targets,
                     kernel_targets_of(targets, strides), options,
                     [&](const UnitRuns& rows,
                         std::span<const KernelTarget> subset) {
                       scan_dense_rows<Op>(parent.data(), outer, inner, rows,
                                           subset, options.input_level);
                     });
  AggregationStats stats;
  stats.cells_scanned = parent.size();
  stats.updates = parent.size() * static_cast<std::int64_t>(targets.size());
  return stats;
}

/// Scans the sparse chunks of `runs`, combining into every target. Chunks
/// go in ascending id order and the nonzeros of a chunk in their stored
/// order, so per child cell the contributions of these chunks arrive in
/// serial scan order.
template <AggregateOp Op>
void scan_sparse_chunks(const SparseArray& parent, const UnitRuns& runs,
                        std::span<const KernelTarget> targets) {
  const int m = parent.ndim();
  const std::size_t num_targets = targets.size();
  const std::vector<std::int64_t>& chunk_extents = parent.chunk_extents();
  std::vector<std::int64_t> chunk_coords(static_cast<std::size_t>(m), 0);
  std::vector<std::int64_t> local(static_cast<std::size_t>(m), 0);
  std::vector<Value*> out(num_targets);

  for (std::int64_t run = 0; run < runs.count; ++run) {
    const std::int64_t first = runs.first + run * runs.stride;
    for (std::int64_t chunk_id = first; chunk_id < first + runs.len;
         ++chunk_id) {
      const auto offsets = parent.chunk_offsets(chunk_id);
      if (offsets.empty()) continue;
      const auto values = parent.chunk_values(chunk_id);
      parent.chunk_grid().unravel(chunk_id, chunk_coords.data());
      // out[c] points at the child cell of this chunk's origin.
      for (std::size_t c = 0; c < num_targets; ++c) {
        std::int64_t projected = 0;
        for (int d = 0; d < m; ++d) {
          projected +=
              chunk_coords[d] * chunk_extents[d] * targets[c].strides[d];
        }
        out[c] = targets[c].base + projected;
      }

      if (targets[0].chunk_offsets != nullptr &&
          parent.chunk_is_full(chunk_coords)) {
        for (std::size_t i = 0; i < offsets.size(); ++i) {
          const auto off = offsets[i];
          const Value v = contribution_of(Op, values[i]);
          for (std::size_t c = 0; c < num_targets; ++c) {
            combine(Op, out[c][targets[c].chunk_offsets[off]], v);
          }
        }
      } else {
        // Boundary chunk: clipped extents, decode offsets directly.
        const Shape local_shape{parent.chunk_shape_at(chunk_coords)};
        for (std::size_t i = 0; i < offsets.size(); ++i) {
          local_shape.unravel(static_cast<std::int64_t>(offsets[i]),
                              local.data());
          const Value v = contribution_of(Op, values[i]);
          for (std::size_t c = 0; c < num_targets; ++c) {
            std::int64_t projected = 0;
            for (int d = 0; d < m; ++d) {
              projected += local[d] * targets[c].strides[d];
            }
            combine(Op, out[c][projected], v);
          }
        }
      }
    }
  }
}

template <AggregateOp Op>
AggregationStats aggregate_sparse(const SparseArray& parent,
                                  std::span<const AggregationTarget> targets,
                                  const AggregateOptions& options) {
  const int m = parent.ndim();
  const std::size_t num_targets = targets.size();
  const std::vector<std::vector<std::int64_t>> strides =
      projection_strides(parent.shape(), targets);
  std::vector<KernelTarget> bound = kernel_targets_of(targets, strides);

  // Fast path: every interior chunk shares the same shape, so the map
  // (within-chunk offset) -> (child index contribution) is chunk-invariant.
  // Build it once per target; interior non-zeros then cost one table lookup
  // plus one combine per target. Only worthwhile (and only affordable) for
  // reasonably small chunks — past the threshold every chunk takes the
  // decode path instead of allocating a giant table. The table is integer
  // data, so its construction parallelizes without ordering concerns.
  constexpr std::int64_t kMaxTableVolume = std::int64_t{1} << 22;
  const Shape full_chunk_shape{parent.chunk_extents()};
  const std::int64_t full_volume = full_chunk_shape.size();
  std::vector<std::vector<std::int64_t>> offset_table(num_targets);
  if (full_volume <= kMaxTableVolume) {
    for (std::size_t c = 0; c < num_targets; ++c) {
      offset_table[c].resize(static_cast<std::size_t>(full_volume));
      bound[c].chunk_offsets = offset_table[c].data();
    }
    pool_of(options).parallel_for(
        0, full_volume, std::int64_t{1} << 14,
        [&](std::int64_t lo, std::int64_t hi) {
          std::vector<std::int64_t> local(static_cast<std::size_t>(m), 0);
          for (std::int64_t off = lo; off < hi; ++off) {
            full_chunk_shape.unravel(off, local.data());
            for (std::size_t c = 0; c < num_targets; ++c) {
              std::int64_t projected = 0;
              for (int d = 0; d < m; ++d) {
                projected += local[d] * strides[c][d];
              }
              offset_table[c][static_cast<std::size_t>(off)] = projected;
            }
          }
        },
        options.max_workers);
  }

  run_owner_computes(parent.chunk_grid(), parent.nnz(), targets, bound,
                     options,
                     [&](const UnitRuns& chunks,
                         std::span<const KernelTarget> subset) {
                       scan_sparse_chunks<Op>(parent, chunks, subset);
                     });
  AggregationStats stats;
  stats.cells_scanned = parent.nnz();
  stats.updates =
      stats.cells_scanned * static_cast<std::int64_t>(num_targets);
  return stats;
}

}  // namespace

AggregationStats aggregate_children(const DenseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options) {
  if (targets.empty()) return {};
  CUBIST_CHECK(parent.ndim() >= 1, "cannot aggregate a scalar parent");
  return dispatch_op(options.op, [&](auto op) {
    return aggregate_dense<decltype(op)::value>(parent, targets, options);
  });
}

AggregationStats aggregate_children(const SparseArray& parent,
                                    std::span<const AggregationTarget> targets,
                                    const AggregateOptions& options) {
  if (targets.empty()) return {};
  CUBIST_CHECK(parent.ndim() >= 1, "cannot aggregate a scalar parent");
  return dispatch_op(options.op, [&](auto op) {
    return aggregate_sparse<decltype(op)::value>(parent, targets, options);
  });
}

namespace {

// Out-array stride of each parent dimension for a multi-dim projection
// (0 for aggregated-away dimensions).
std::vector<std::int64_t> multi_projection_strides(
    const Shape& parent_shape, const std::vector<int>& kept_positions,
    const DenseArray& out) {
  const int m = parent_shape.ndim();
  std::vector<std::int64_t> expected;
  for (std::size_t i = 0; i < kept_positions.size(); ++i) {
    const int pos = kept_positions[i];
    CUBIST_CHECK(pos >= 0 && pos < m, "kept position out of range");
    CUBIST_CHECK(i == 0 || kept_positions[i - 1] < pos,
                 "kept positions must be strictly ascending");
    expected.push_back(parent_shape.extent(pos));
  }
  CUBIST_CHECK(out.shape().extents() == expected,
               "projection output shape mismatch");
  std::vector<std::int64_t> strides(static_cast<std::size_t>(m), 0);
  for (std::size_t i = 0; i < kept_positions.size(); ++i) {
    strides[kept_positions[i]] = out.shape().stride(static_cast<int>(i));
  }
  return strides;
}

}  // namespace

AggregationStats project(const DenseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out) {
  CUBIST_CHECK(out != nullptr, "null projection output");
  const std::vector<std::int64_t> strides =
      multi_projection_strides(parent.shape(), kept_positions, *out);
  const int m = parent.ndim();
  Value* dst = out->data();
  if (m == 0) {
    dst[0] += parent[0];
    return {1, 1};
  }
  std::vector<std::int64_t> index(static_cast<std::size_t>(m), 0);
  for (std::int64_t linear = 0; linear < parent.size(); ++linear) {
    parent.shape().unravel(linear, index.data());
    std::int64_t projected = 0;
    for (int d = 0; d < m; ++d) {
      projected += index[d] * strides[d];
    }
    dst[projected] += parent[linear];
  }
  return {parent.size(), parent.size()};
}

AggregationStats project(const SparseArray& parent,
                         const std::vector<int>& kept_positions,
                         DenseArray* out) {
  CUBIST_CHECK(out != nullptr, "null projection output");
  const std::vector<std::int64_t> strides =
      multi_projection_strides(parent.shape(), kept_positions, *out);
  const int m = parent.ndim();
  Value* dst = out->data();
  AggregationStats stats;
  parent.for_each_nonzero([&](const std::int64_t* index, Value value) {
    std::int64_t projected = 0;
    for (int d = 0; d < m; ++d) {
      projected += index[d] * strides[d];
    }
    dst[projected] += value;
    ++stats.cells_scanned;
    ++stats.updates;
  });
  return stats;
}

}  // namespace cubist
