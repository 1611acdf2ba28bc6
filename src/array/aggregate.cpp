#include "array/aggregate.h"

#include <algorithm>
#include <array>
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
/// by pointer or index, never copied.
struct KernelTarget {
  /// The child array's cells.
  Value* base = nullptr;
  /// Child stride per parent dimension (0 for the aggregated one).
  const std::int64_t* strides = nullptr;
  /// Sparse only: the target's index into the scan's SplitTables.
  std::size_t index = 0;
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
    bound[c].index = c;
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

/// Projected child offsets of every cell of the row-major sub-shape
/// `extents`, whose dimension k has child stride strides[k].
std::vector<std::int64_t> side_table(std::span<const std::int64_t> extents,
                                     const std::int64_t* strides) {
  std::vector<std::int64_t> table{0};
  for (std::size_t k = 0; k < extents.size(); ++k) {
    std::vector<std::int64_t> next;
    next.reserve(table.size() * static_cast<std::size_t>(extents[k]));
    for (const std::int64_t base : table) {
      for (std::int64_t x = 0; x < extents[k]; ++x) {
        next.push_back(base + x * strides[k]);
      }
    }
    table = std::move(next);
  }
  return table;
}

/// The split tables of one sparse scan. A chunk offset splits at a
/// dimension s as off = o * V_in + i, where o is the row-major index of
/// the cell's outer coordinates (dims [0, s)) and i that of its inner
/// coordinates (dims [s, m)), both within the chunk's own extents. Per
/// target, an outer table maps o and an inner table maps i to their share
/// of the child offset, so the cell lands at origin + outer[o] + inner[i].
/// s balances V_out + V_in, so a table has about sqrt(chunk volume)
/// entries (or at most kMaxInnerTable). Along each dimension a
/// chunk is either interior or the clipped last one, so a side's tables
/// are built once per *variant*: the set of its clipped dimensions the
/// chunk is last along.
class SplitTables {
 public:
  /// One side of the split: the dimensions before s, or from s on.
  struct Side {
    /// Dimensions of the side whose last chunk is clipped; bit j of a
    /// variant says the chunk is the last along clipped[j].
    std::vector<int> clipped;
    /// Cells of the side's sub-shape, per variant.
    std::vector<std::int64_t> volume;
    /// Entry variant * targets + target: that target's table.
    std::vector<std::vector<std::int64_t>> tables;
  };

  SplitTables(const SparseArray& parent,
              std::span<const KernelTarget> targets)
      : grid_(parent.chunk_grid()), num_targets_(targets.size()) {
    const int m = parent.ndim();
    const std::vector<std::int64_t>& chunk = parent.chunk_extents();
    // Extents of a chunk that is first (interior, unless the only one) and
    // last along each dimension.
    std::vector<std::int64_t> first(static_cast<std::size_t>(m));
    std::vector<std::int64_t> last(static_cast<std::size_t>(m));
    for (int d = 0; d < m; ++d) {
      const std::int64_t extent = parent.shape().extent(d);
      first[d] = std::min(chunk[d], extent);
      last[d] = extent - (grid_.extent(d) - 1) * chunk[d];
    }
    // The split that minimizes V_out + V_in (ties keep the larger inner
    // side, so fewer rows), moved outward while the inner table stays
    // within kMaxInnerTable: small chunks are then walked as one row.
    std::vector<std::int64_t> v_in(static_cast<std::size_t>(m) + 1, 1);
    for (int d = m - 1; d >= 0; --d) v_in[d] = v_in[d + 1] * first[d];
    int split = 0;
    std::int64_t best = 0;
    for (int s = 0; s <= m; ++s) {
      const std::int64_t v_out = v_in[0] / std::max<std::int64_t>(v_in[s], 1);
      if (s == 0 || v_out + v_in[s] < best) {
        best = v_out + v_in[s];
        split = s;
      }
    }
    while (split > 0 && v_in[split - 1] <= kMaxInnerTable) --split;
    build_side(outer_, 0, split, first, last, targets);
    build_side(inner_, split, m, first, last, targets);
  }

  const Side& outer() const { return outer_; }
  const Side& inner() const { return inner_; }

  /// The variant of `side` the chunk at grid coordinates `coords` has.
  std::size_t variant(const Side& side, const std::int64_t* coords) const {
    std::size_t v = 0;
    for (std::size_t j = 0; j < side.clipped.size(); ++j) {
      const int d = side.clipped[j];
      if (coords[d] == grid_.extent(d) - 1) v |= std::size_t{1} << j;
    }
    return v;
  }

  const std::int64_t* table(const Side& side, std::size_t variant,
                            std::size_t target) const {
    return side.tables[variant * num_targets_ + target].data();
  }

 private:
  /// Inner-table entries a chunk may use beyond its balanced split.
  static constexpr std::int64_t kMaxInnerTable = 1 << 10;

  void build_side(Side& side, int begin, int end,
                  const std::vector<std::int64_t>& first,
                  const std::vector<std::int64_t>& last,
                  std::span<const KernelTarget> targets) {
    for (int d = begin; d < end; ++d) {
      if (last[d] != first[d]) side.clipped.push_back(d);
    }
    const std::size_t variants = std::size_t{1} << side.clipped.size();
    for (std::size_t v = 0; v < variants; ++v) {
      std::vector<std::int64_t> extents(first.begin() + begin,
                                        first.begin() + end);
      for (std::size_t j = 0; j < side.clipped.size(); ++j) {
        const int d = side.clipped[j];
        if ((v >> j) & 1) {
          extents[static_cast<std::size_t>(d - begin)] = last[d];
        }
      }
      std::int64_t volume = 1;
      for (const std::int64_t e : extents) volume *= e;
      side.volume.push_back(volume);
      for (const KernelTarget& target : targets) {
        side.tables.push_back(side_table(extents, target.strides + begin));
      }
    }
  }

  Shape grid_;
  std::size_t num_targets_ = 0;
  Side outer_;
  Side inner_;
};

/// Walks one chunk's non-zeros row by row, combining into `num_targets`
/// targets (the compile-time N when N > 0). Offsets ascend, so the row
/// pointers origin[c] + outer[c][o] change only when a non-zero leaves the
/// current outer row: at most one division per row (none when it moves to
/// the next row), then per non-zero one subtraction plus one inner-table
/// load and one combine per target. `dynamic_row` is scratch for
/// `num_targets` row pointers, used when N == 0.
template <AggregateOp Op, std::size_t N>
void walk_chunk(std::span<const SparseArray::Offset> offsets,
                std::span<const Value> values, std::int64_t inner_volume,
                std::size_t num_targets, Value* const* origin,
                const std::int64_t* const* outer,
                const std::int64_t* const* inner, Value** dynamic_row) {
  const std::size_t n = N > 0 ? N : num_targets;
  std::array<Value*, N> fixed_row{};
  Value** row = N > 0 ? fixed_row.data() : dynamic_row;
  const auto row_len = static_cast<std::uint64_t>(inner_volume);
  std::int64_t o = -1;  // current outer row: none yet
  std::int64_t row_begin = -inner_volume;
  for (std::size_t k = 0; k < offsets.size(); ++k) {
    const auto off = static_cast<std::int64_t>(offsets[k]);
    // Unsigned, so an offset below the row (an unsorted chunk) also
    // leaves it.
    const auto into_row = static_cast<std::uint64_t>(off - row_begin);
    if (into_row >= row_len) {
      o = into_row < 2 * row_len ? o + 1 : off / inner_volume;
      row_begin = o * inner_volume;
      for (std::size_t c = 0; c < n; ++c) row[c] = origin[c] + outer[c][o];
    }
    const std::int64_t i = off - row_begin;
    const Value v = contribution_of(Op, values[k]);
    for (std::size_t c = 0; c < n; ++c) combine(Op, row[c][inner[c][i]], v);
  }
}

/// Scans the sparse chunks of `runs`, combining into every target (N of
/// them when N > 0). Chunks go in ascending id order and the non-zeros of
/// a chunk in their stored order, so per child cell the contributions of
/// these chunks arrive in serial scan order.
template <AggregateOp Op, std::size_t N>
void scan_sparse_chunks(const SparseArray& parent, const SplitTables& tables,
                        const UnitRuns& runs,
                        std::span<const KernelTarget> targets) {
  const int m = parent.ndim();
  const std::size_t n = targets.size();
  CUBIST_DCHECK(N == 0 || N == n, "target count " << n << " != " << N);
  const std::vector<std::int64_t>& chunk_extents = parent.chunk_extents();
  std::vector<std::int64_t> chunk_coords(static_cast<std::size_t>(m), 0);
  std::vector<Value*> origin(n);
  std::vector<const std::int64_t*> outer(n);
  std::vector<const std::int64_t*> inner(n);
  std::vector<Value*> row(N > 0 ? 0 : n);

  for (std::int64_t run = 0; run < runs.count; ++run) {
    const std::int64_t first = runs.first + run * runs.stride;
    for (std::int64_t chunk_id = first; chunk_id < first + runs.len;
         ++chunk_id) {
      const auto offsets = parent.chunk_offsets(chunk_id);
      if (offsets.empty()) continue;
      parent.chunk_grid().unravel(chunk_id, chunk_coords.data());
      const std::size_t ov =
          tables.variant(tables.outer(), chunk_coords.data());
      const std::size_t iv =
          tables.variant(tables.inner(), chunk_coords.data());
      for (std::size_t c = 0; c < n; ++c) {
        // origin[c] points at the child cell of this chunk's origin.
        std::int64_t projected = 0;
        for (int d = 0; d < m; ++d) {
          projected +=
              chunk_coords[d] * chunk_extents[d] * targets[c].strides[d];
        }
        origin[c] = targets[c].base + projected;
        outer[c] = tables.table(tables.outer(), ov, targets[c].index);
        inner[c] = tables.table(tables.inner(), iv, targets[c].index);
      }
      walk_chunk<Op, N>(offsets, parent.chunk_values(chunk_id),
                        tables.inner().volume[iv], n, origin.data(),
                        outer.data(), inner.data(), row.data());
    }
  }
}

/// Calls `scan(std::integral_constant<std::size_t, N>{})` with N = `count`
/// for the common small target counts, else N = 0 (a runtime count).
template <typename Scan>
void dispatch_count(std::size_t count, const Scan& scan) {
  switch (count) {
    case 1:
      return scan(std::integral_constant<std::size_t, 1>{});
    case 2:
      return scan(std::integral_constant<std::size_t, 2>{});
    case 3:
      return scan(std::integral_constant<std::size_t, 3>{});
    case 4:
      return scan(std::integral_constant<std::size_t, 4>{});
    case 5:
      return scan(std::integral_constant<std::size_t, 5>{});
    case 6:
      return scan(std::integral_constant<std::size_t, 6>{});
    default:
      return scan(std::integral_constant<std::size_t, 0>{});
  }
}

template <AggregateOp Op>
AggregationStats aggregate_sparse(const SparseArray& parent,
                                  std::span<const AggregationTarget> targets,
                                  const AggregateOptions& options) {
  const std::vector<std::vector<std::int64_t>> strides =
      projection_strides(parent.shape(), targets);
  const std::vector<KernelTarget> bound = kernel_targets_of(targets, strides);
  const SplitTables tables(parent, bound);
  run_owner_computes(
      parent.chunk_grid(), parent.nnz(), targets, bound, options,
      [&](const UnitRuns& chunks, std::span<const KernelTarget> subset) {
        dispatch_count(subset.size(), [&](auto count) {
          scan_sparse_chunks<Op, decltype(count)::value>(parent, tables,
                                                         chunks, subset);
        });
      });
  AggregationStats stats;
  stats.cells_scanned = parent.nnz();
  stats.updates =
      stats.cells_scanned * static_cast<std::int64_t>(targets.size());
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
  // The multi-way sparse kernel with one SUM target whose strides are 0
  // on every dropped dimension.
  const KernelTarget target{.base = out->data(), .strides = strides.data()};
  const std::span<const KernelTarget> one(&target, 1);
  scan_sparse_chunks<AggregateOp::kSum, 1>(
      parent, SplitTables(parent, one), UnitRuns{.len = parent.num_chunks()},
      one);
  return {parent.nnz(), parent.nnz()};
}

}  // namespace cubist
