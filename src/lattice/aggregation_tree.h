// Aggregation tree (paper Definition 3, Figure 2c).
//
// The complement of the prefix tree: node ~X exists for every prefix-tree
// node X, and edges carry over. It is a spanning tree of the data cube
// lattice, so it prescribes one parent per view. Its two key properties
// (paper §3):
//   * evaluating a node computes ALL its children in one scan (maximal
//     cache/memory reuse), and
//   * a right-to-left depth-first traversal bounds the live intermediate
//     results by the sum of the first-level view sizes (Theorem 1), which
//     is also a lower bound for any tree (Theorem 2).
//
// The tree is expressed over dimension *positions* 0..n-1; instantiating it
// for a particular ordering of physical dimensions is the job of the core
// layer (the paper's "parameterized by the ordering of dimensions").
//
// Closed form used here (equivalent to complementing Definition 2): the
// children of view V are V \ {j} for every position j ∈ V greater than all
// positions already aggregated away (j > max(~V)), ordered left to right by
// ascending j; the parent of V re-adds the largest missing position.
#pragma once

#include <vector>

#include "common/dimset.h"

namespace cubist {

/// One step of the Figure-3/Figure-5 construction schedule.
struct ScheduleEvent {
  enum class Kind {
    /// Scan `view`'s array once, producing all of its children.
    kComputeChildren,
    /// `view` is complete and no longer needed: write it back / free it.
    kWriteBack,
  };
  Kind kind;
  DimSet view;

  bool operator==(const ScheduleEvent&) const = default;
};

class AggregationTree {
 public:
  explicit AggregationTree(int n);

  int ndims() const { return n_; }
  DimSet root() const { return DimSet::full(n_); }

  /// Children of `view`, left to right (ascending aggregated position).
  std::vector<DimSet> children(DimSet view) const;

  bool is_leaf(DimSet view) const { return children(view).empty(); }

  /// Parent of `view`; precondition: view != root.
  DimSet parent(DimSet view) const;

  /// The position aggregated away when `view` was computed from its
  /// parent: the largest position missing from `view`.
  int aggregated_dim(DimSet view) const;

  /// The Figure-3 execution order: Evaluate(root) emits kComputeChildren
  /// for each internal node and kWriteBack for every non-root view, with
  /// children recursed right to left. This sequence drives the memory
  /// simulator; the builders walk SpanningTree::aggregation(n) in the
  /// same order (core/tree_executor.h).
  std::vector<ScheduleEvent> schedule() const;

  /// All 2^n views in the order they are completed (write-back order).
  std::vector<DimSet> completion_order() const;

 private:
  void evaluate(DimSet view, std::vector<ScheduleEvent>& out) const;

  int n_;
};

}  // namespace cubist
