#include "core/parallel_builder.h"

#include <algorithm>

#include "array/aggregate.h"
#include "array/aggregate_op.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "lattice/aggregation_tree.h"
#include "lattice/memory_sim.h"
#include "obs/trace.h"

namespace cubist {
namespace {

class RankBuilder {
 public:
  RankBuilder(Comm& comm, const ProcGrid& grid,
              std::vector<std::int64_t> global_sizes,
              const ParallelOptions& options)
      : comm_(comm),
        grid_(grid),
        n_(static_cast<int>(global_sizes.size())),
        tree_(n_),
        global_sizes_(std::move(global_sizes)),
        options_(options) {
    CUBIST_CHECK(grid_.ndims() == n_, "grid rank mismatch");
    CUBIST_CHECK(options_.reduce_message_elements >= 0,
                 "negative reduction message cap");
    // All grid.size() ranks scan concurrently (SPMD threads under the
    // minimpi runtime), so each rank gets an even share of the pool; a
    // share of 1 makes every scan run inline on the rank's own thread.
    // This cap is redundant with the runtime's ScopedActiveRanks
    // registration, but keeps ranks from oversubscribing even when
    // build_cube_parallel_rank is driven by some other harness.
    ThreadPool* pool =
        options_.pool != nullptr ? options_.pool : &ThreadPool::global();
    agg_options_.pool = pool;
    agg_options_.max_workers = std::max(1, pool->size() / grid_.size());
    agg_options_.op = options_.op;
    reduce_options_.algorithm = options_.reduce_algorithm;
    reduce_options_.density_hint = options_.reduce_density_hint;
    reduce_options_.max_message_elements = options_.reduce_message_elements;
    reduce_options_.wire.enabled = options_.encode_wire;
    reduce_options_.wire.density_threshold = options_.wire_density_threshold;
    reduce_options_.combine_pool = pool;
    reduce_options_.combine_workers = agg_options_.max_workers;
  }

  std::map<std::uint32_t, DenseArray> run(const SparseArray& local_root,
                                          ParallelBuildStats* stats) {
    CUBIST_CHECK(local_root.shape().extents() ==
                     grid_.block(comm_.rank(), global_sizes_).extents(),
                 "local root block shape mismatch for rank " << comm_.rank());
    compute_children(tree_.root(), local_root, /*input_level=*/true);
    descend(tree_.root());
    CUBIST_ASSERT(live_.empty(), "view blocks left unwritten");
    if (stats != nullptr) {
      stats_.peak_live_bytes = ledger_.peak_bytes();
      stats_.logical_bytes_sent = comm_.logical_bytes_sent();
      stats_.wire_bytes_sent = comm_.wire_bytes_sent();
      stats_.build_clock_seconds = comm_.clock();
      *stats = stats_;
    }
    return std::move(done_);
  }

 private:
  /// One local scan of this rank's block of `view`, producing partial
  /// blocks of every aggregation-tree child. `input_level` is true only
  /// for the root scan (raw-input cell semantics for non-SUM operators).
  template <typename Parent>
  void compute_children(DimSet view, const Parent& parent_array,
                        bool input_level) {
    const std::vector<int> view_dims = view.dims();
    std::vector<AggregationTarget> targets;
    for (DimSet child : tree_.children(view)) {
      const int aggregated = view.minus(child).min_dim();
      int pos = 0;
      while (view_dims[pos] != aggregated) ++pos;
      auto [it, inserted] = live_.try_emplace(
          child.mask(), DenseArray(parent_array.shape().without_dim(pos)));
      CUBIST_ASSERT(inserted, "child block already live");
      if (options_.op != AggregateOp::kSum) {
        fill_identity(options_.op, it->second);
      }
      ledger_.alloc(it->second.bytes());
      targets.push_back(AggregationTarget{pos, &it->second});
    }
    obs::Span span("build", input_level ? "scan_input" : "scan_view");
    span.tag("view", static_cast<std::int64_t>(view.mask()))
        .tag("children", static_cast<std::int64_t>(targets.size()));
    AggregateOptions scan_options = agg_options_;
    scan_options.input_level = input_level;
    const AggregationStats scan =
        aggregate_children(parent_array, targets, scan_options);
    span.tag("cells", scan.cells_scanned).tag("updates", scan.updates);
    stats_.cells_scanned += scan.cells_scanned;
    stats_.updates += scan.updates;
    comm_.charge_compute(scan.cells_scanned, scan.updates);
  }

  /// Figure 5's child walk: finalize each child over the wire, then either
  /// keep going (leads) or drop out (non-leads).
  void descend(DimSet view) {
    const std::vector<DimSet> kids = tree_.children(view);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      const DimSet child = *it;
      const int aggregated = view.minus(child).min_dim();
      DenseArray& block = live_.at(child.mask());
      // Sum partial blocks over the processors along the aggregated
      // dimension; the lead (coordinate 0) ends up with the final values.
      const std::vector<int> group = grid_.axis_group(comm_.rank(), aggregated);
      if (group.size() > 1) {
        // The per-collective timing lives in Comm::reduce's own "comm"
        // span; this one names WHICH view edge the collective finalizes.
        obs::Span span("build", "reduce_view");
        span.tag("view", static_cast<std::int64_t>(child.mask()))
            .tag("axis", static_cast<std::int64_t>(aggregated));
        comm_.reduce(group, block, child.mask(), options_.op,
                     reduce_options_);
      }
      if (grid_.is_lead(comm_.rank(), aggregated)) {
        if (tree_.is_leaf(child)) {
          write_back(child);
        } else {
          evaluate(child);
        }
      } else {
        discard(child);
      }
    }
  }

  void evaluate(DimSet view) {
    compute_children(view, live_.at(view.mask()), /*input_level=*/false);
    descend(view);
    write_back(view);
  }

  void write_back(DimSet view) {
    auto it = live_.find(view.mask());
    CUBIST_ASSERT(it != live_.end(), "write-back of non-live view block");
    obs::Instant("build", "write_back")
        .tag("view", static_cast<std::int64_t>(view.mask()))
        .tag("bytes", it->second.bytes());
    ledger_.release(it->second.bytes());
    stats_.written_bytes += it->second.bytes();
    finalize_view(options_.op, it->second);
    done_.insert_or_assign(view.mask(), std::move(it->second));
    live_.erase(it);
  }

  void discard(DimSet view) {
    auto it = live_.find(view.mask());
    CUBIST_ASSERT(it != live_.end(), "discard of non-live view block");
    ledger_.release(it->second.bytes());
    live_.erase(it);
  }

  Comm& comm_;
  const ProcGrid& grid_;
  int n_;
  AggregationTree tree_;
  std::vector<std::int64_t> global_sizes_;
  ParallelOptions options_;
  AggregateOptions agg_options_;
  ReduceOptions reduce_options_;
  std::map<std::uint32_t, DenseArray> live_;
  std::map<std::uint32_t, DenseArray> done_;
  MemoryLedger ledger_;
  ParallelBuildStats stats_;
};

}  // namespace

std::map<std::uint32_t, DenseArray> build_cube_parallel_rank(
    Comm& comm, const ProcGrid& grid,
    const std::vector<std::int64_t>& global_sizes,
    const SparseArray& local_root, ParallelBuildStats* stats,
    const ParallelOptions& options) {
  RankBuilder builder(comm, grid, global_sizes, options);
  return builder.run(local_root, stats);
}

}  // namespace cubist
