#include "core/parallel_builder.h"

#include <algorithm>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/tree_executor.h"
#include "lattice/spanning_tree.h"
#include "obs/trace.h"

namespace cubist {

std::map<std::uint32_t, DenseArray> build_cube_parallel_rank(
    Comm& comm, const ProcGrid& grid,
    const std::vector<std::int64_t>& global_sizes,
    const SparseArray& local_root, ParallelBuildStats* stats,
    const ParallelOptions& options) {
  const int n = static_cast<int>(global_sizes.size());
  CUBIST_CHECK(grid.ndims() == n, "grid rank mismatch");
  CUBIST_CHECK(options.reduce_message_elements >= 0,
               "negative reduction message cap");
  CUBIST_CHECK(local_root.shape().extents() ==
                   grid.block(comm.rank(), global_sizes).extents(),
               "local root block shape mismatch for rank " << comm.rank());
  // All grid.size() ranks scan concurrently (SPMD threads under the
  // minimpi runtime), so each rank gets an even share of the pool; a
  // share of 1 makes every scan run inline on the rank's own thread.
  // This cap is redundant with the runtime's ScopedActiveRanks
  // registration, but keeps ranks from oversubscribing even when
  // build_cube_parallel_rank is driven by some other harness.
  ThreadPool* pool =
      options.pool != nullptr ? options.pool : &ThreadPool::global();
  AggregateOptions agg_options;
  agg_options.pool = pool;
  agg_options.max_workers = std::max(1, pool->size() / grid.size());
  agg_options.op = options.op;
  ReduceOptions reduce_options;
  reduce_options.algorithm = options.reduce_algorithm;
  reduce_options.density_hint = options.reduce_density_hint;
  reduce_options.max_message_elements = options.reduce_message_elements;
  reduce_options.wire.enabled = options.encode_wire;
  reduce_options.wire.density_threshold = options.wire_density_threshold;
  reduce_options.combine_pool = pool;
  reduce_options.combine_workers = agg_options.max_workers;

  TreeHooks hooks;
  hooks.on_scan = [&](const AggregationStats& scan) {
    comm.charge_compute(scan.cells_scanned, scan.updates);
  };
  // Figure 5's child step: combine the partial blocks over the processors
  // along the aggregated dimension; the lead (coordinate 0) ends up with
  // the final values and alone keeps going.
  hooks.keep = [&](DimSet parent, DimSet child, DenseArray& block) {
    const int aggregated = parent.minus(child).min_dim();
    const std::vector<int> group = grid.axis_group(comm.rank(), aggregated);
    if (group.size() > 1) {
      // The per-collective timing lives in Comm::reduce's own "comm"
      // span; this one names WHICH view edge the collective finalizes.
      obs::Span span("build", "reduce_view");
      span.tag("view", static_cast<std::int64_t>(child.mask()))
          .tag("axis", static_cast<std::int64_t>(aggregated));
      comm.reduce(group, block, child.mask(), options.op, reduce_options);
    }
    return grid.is_lead(comm.rank(), aggregated);
  };
  std::map<std::uint32_t, DenseArray> done =
      execute_tree(SpanningTree::aggregation(n), local_root,
                   ScanDiscipline::kMultiWay, agg_options, hooks, stats);
  if (stats != nullptr) {
    stats->logical_bytes_sent = comm.logical_bytes_sent();
    stats->wire_bytes_sent = comm.wire_bytes_sent();
    stats->build_clock_seconds = comm.clock();
  }
  return done;
}

}  // namespace cubist
