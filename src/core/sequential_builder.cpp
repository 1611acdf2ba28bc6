#include "core/sequential_builder.h"

#include <algorithm>
#include <map>
#include <vector>

#include "array/aggregate.h"
#include "array/aggregate_op.h"
#include "common/error.h"
#include "lattice/aggregation_tree.h"
#include "lattice/memory_sim.h"

namespace cubist {
namespace {

class Builder {
 public:
  Builder(std::vector<std::int64_t> sizes, AggregateOp op,
          const AggregateOptions& agg_options)
      : sizes_(std::move(sizes)),
        n_(static_cast<int>(sizes_.size())),
        op_(op),
        agg_options_(agg_options),
        tree_(n_),
        result_(sizes_) {
    agg_options_.op = op;
  }

  template <typename Root>
  CubeResult run(const Root& root, BuildStats* stats) {
    const DimSet root_view = tree_.root();
    compute_children(root_view, root, /*input_level=*/true);
    descend(root_view);
    CUBIST_ASSERT(live_.empty(), "views left unwritten");
    CUBIST_ASSERT(result_.num_views() + 1 == (std::size_t{1} << n_),
                  "cube incomplete");
    if (stats != nullptr) {
      stats_.peak_live_bytes = ledger_.peak_bytes();
      *stats = stats_;
    }
    return std::move(result_);
  }

 private:
  /// One scan of `parent_array` producing every aggregation-tree child of
  /// `view` (maximal cache and memory reuse). `input_level` is true only
  /// for the root scan (raw-input cell semantics for non-SUM operators).
  template <typename Parent>
  void compute_children(DimSet view, const Parent& parent_array,
                        bool input_level) {
    const std::vector<int> view_dims = view.dims();
    std::vector<AggregationTarget> targets;
    for (DimSet child : tree_.children(view)) {
      const int aggregated = view.minus(child).min_dim();
      // Position of the aggregated dimension within the parent's dims.
      int pos = 0;
      while (view_dims[pos] != aggregated) ++pos;
      auto [it, inserted] = live_.try_emplace(
          child.mask(), DenseArray(parent_array.shape().without_dim(pos)));
      CUBIST_ASSERT(inserted, "child already live");
      if (op_ != AggregateOp::kSum) {
        fill_identity(op_, it->second);
      }
      ledger_.alloc(it->second.bytes());
      targets.push_back(AggregationTarget{pos, &it->second});
    }
    AggregateOptions scan_options = agg_options_;
    scan_options.input_level = input_level;
    const AggregationStats scan =
        aggregate_children(parent_array, targets, scan_options);
    stats_.cells_scanned += scan.cells_scanned;
    stats_.updates += scan.updates;
  }

  /// Figure 3's right-to-left child walk below an already-computed node.
  void descend(DimSet view) {
    const std::vector<DimSet> kids = tree_.children(view);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      if (tree_.is_leaf(*it)) {
        write_back(*it);
      } else {
        evaluate(*it);
      }
    }
  }

  /// Figure 3's Evaluate() for a non-root node whose array is live.
  void evaluate(DimSet view) {
    compute_children(view, live_.at(view.mask()), /*input_level=*/false);
    descend(view);
    write_back(view);
  }

  void write_back(DimSet view) {
    auto it = live_.find(view.mask());
    CUBIST_ASSERT(it != live_.end(), "write-back of non-live view");
    ledger_.release(it->second.bytes());
    stats_.written_bytes += it->second.bytes();
    finalize_view(op_, it->second);
    result_.put(view, std::move(it->second));
    live_.erase(it);
  }

  std::vector<std::int64_t> sizes_;
  int n_;
  AggregateOp op_;
  AggregateOptions agg_options_;
  AggregationTree tree_;
  CubeResult result_;
  std::map<std::uint32_t, DenseArray> live_;
  MemoryLedger ledger_;
  BuildStats stats_;
};

}  // namespace

CubeResult build_cube_sequential(const DenseArray& root, BuildStats* stats,
                                 AggregateOp op,
                                 const AggregateOptions& agg_options) {
  Builder builder(root.shape().extents(), op, agg_options);
  return builder.run(root, stats);
}

CubeResult build_cube_sequential(const SparseArray& root, BuildStats* stats,
                                 AggregateOp op,
                                 const AggregateOptions& agg_options) {
  Builder builder(root.shape().extents(), op, agg_options);
  return builder.run(root, stats);
}

}  // namespace cubist
