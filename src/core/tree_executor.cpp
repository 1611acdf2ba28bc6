#include "core/tree_executor.h"

#include <vector>

#include "array/aggregate_op.h"
#include "common/error.h"
#include "core/cube_result.h"
#include "lattice/memory_sim.h"
#include "obs/trace.h"

namespace cubist {
namespace {

class TreeExecutor {
 public:
  TreeExecutor(const SpanningTree& tree, ScanDiscipline discipline,
               const AggregateOptions& options, const TreeHooks& hooks)
      : tree_(tree), discipline_(discipline), options_(options),
        hooks_(hooks) {
    CUBIST_CHECK(discipline_ == ScanDiscipline::kMultiWay ||
                     options_.op == AggregateOp::kSum,
                 "per-child scans aggregate under SUM only");
  }

  template <typename Root>
  std::map<std::uint32_t, DenseArray> run(const Root& root,
                                          BuildStats* stats) {
    CUBIST_CHECK(root.ndim() == tree_.ndims(), "tree rank mismatch");
    scan_children(tree_.root(), root, /*input_level=*/true);
    CUBIST_ASSERT(live_.empty(), "views left unwritten");
    if (stats != nullptr) {
      stats_.peak_live_bytes = ledger_.peak_bytes();
      *stats = stats_;
    }
    return std::move(done_);
  }

 private:
  /// Produces and finishes every child of `view`, whose array is
  /// `parent`. Multi-way: one scan produces them all, then each is
  /// finished. Per-child: each is projected just before it is finished.
  template <typename Parent>
  void scan_children(DimSet view, const Parent& parent, bool input_level) {
    const std::vector<DimSet>& kids = tree_.children(view);
    if (kids.empty()) return;
    AggregateOptions scan_options = options_;
    scan_options.input_level = input_level;
    if (discipline_ == ScanDiscipline::kMultiWay) {
      std::vector<AggregationTarget> targets;
      for (DimSet child : kids) {
        CUBIST_CHECK(child.size() + 1 == view.size(),
                     "multi-way discipline requires single-dimension edges");
        // Position of the dropped dimension among the parent's dims.
        const int aggregated = view.minus(child).min_dim();
        const int pos = view.intersect(DimSet::full(aggregated)).size();
        targets.push_back(AggregationTarget{
            pos, &allocate(child, parent.shape().without_dim(pos))});
      }
      scan(view, input_level, targets.size(), [&] {
        return aggregate_children(parent, targets, scan_options);
      });
      for (DimSet child : kids) finish(view, child);
    } else {
      for (DimSet child : kids) {
        const std::vector<int> kept = kept_positions(view, child);
        DenseArray& block = allocate(
            child, view_shape(parent.shape().extents(), DimSet::of(kept)));
        scan(view, input_level, 1,
             [&] { return project(parent, kept, &block); });
        finish(view, child);
      }
    }
  }

  template <typename Scan>
  void scan(DimSet view, bool input_level, std::size_t children,
            const Scan& run_scan) {
    obs::Span span("build", input_level ? "scan_input" : "scan_view");
    span.tag("view", static_cast<std::int64_t>(view.mask()))
        .tag("children", static_cast<std::int64_t>(children));
    const AggregationStats scanned = run_scan();
    span.tag("cells", scanned.cells_scanned).tag("updates", scanned.updates);
    stats_.cells_scanned += scanned.cells_scanned;
    stats_.updates += scanned.updates;
    if (hooks_.on_scan) hooks_.on_scan(scanned);
  }

  DenseArray& allocate(DimSet view, const Shape& shape) {
    auto [it, inserted] = live_.try_emplace(view.mask(), shape);
    CUBIST_ASSERT(inserted, "view already live");
    if (options_.op != AggregateOp::kSum) {
      fill_identity(options_.op, it->second);
    }
    ledger_.alloc(it->second.bytes());
    return it->second;
  }

  /// `child` is live (scanned): keep it and produce its subtree, then
  /// write it back; or drop it.
  void finish(DimSet parent, DimSet child) {
    const auto it = live_.find(child.mask());
    CUBIST_ASSERT(it != live_.end(), "finish of non-live view");
    if (hooks_.keep && !hooks_.keep(parent, child, it->second)) {
      ledger_.release(it->second.bytes());
      live_.erase(it);
      return;
    }
    scan_children(child, it->second, /*input_level=*/false);
    write_back(it);
  }

  void write_back(std::map<std::uint32_t, DenseArray>::iterator it) {
    DenseArray& block = it->second;
    obs::Instant("build", "write_back")
        .tag("view", static_cast<std::int64_t>(it->first))
        .tag("bytes", block.bytes());
    ledger_.release(block.bytes());
    stats_.written_bytes += block.bytes();
    finalize_view(options_.op, block);
    done_.insert_or_assign(it->first, std::move(block));
    live_.erase(it);
  }

  const SpanningTree& tree_;
  ScanDiscipline discipline_;
  AggregateOptions options_;
  const TreeHooks& hooks_;
  std::map<std::uint32_t, DenseArray> live_;
  std::map<std::uint32_t, DenseArray> done_;
  MemoryLedger ledger_;
  BuildStats stats_;
};

}  // namespace

std::map<std::uint32_t, DenseArray> execute_tree(
    const SpanningTree& tree, const DenseArray& root,
    ScanDiscipline discipline, const AggregateOptions& options,
    const TreeHooks& hooks, BuildStats* stats) {
  return TreeExecutor(tree, discipline, options, hooks).run(root, stats);
}

std::map<std::uint32_t, DenseArray> execute_tree(
    const SpanningTree& tree, const SparseArray& root,
    ScanDiscipline discipline, const AggregateOptions& options,
    const TreeHooks& hooks, BuildStats* stats) {
  return TreeExecutor(tree, discipline, options, hooks).run(root, stats);
}

}  // namespace cubist
