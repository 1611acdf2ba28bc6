// Sequential data cube construction over the aggregation tree (Figure 3).
//
// Evaluate(l): one scan of l produces ALL of l's children simultaneously;
// children are then visited right to left, leaves written back immediately,
// internal nodes recursed into; l itself is written back last. The walk is
// core/tree_executor.h's, with no hooks. The only traffic is reading the
// input once and writing each computed view once, and the live
// intermediate results never exceed the Theorem-1 bound (sum of the
// first-level view sizes) — both properties are asserted by the test suite
// against the stats reported here.
#pragma once

#include "array/aggregate.h"
#include "array/aggregate_op.h"
#include "array/dense_array.h"
#include "array/sparse_array.h"
#include "core/cube_result.h"
#include "core/tree_executor.h"

namespace cubist {

/// Builds the full cube from a dense root array. The result holds every
/// proper view (the root view is the input itself and is not duplicated).
/// `op` selects the aggregate (extension; the paper fixes SUM; every
/// operator runs the same multi-way kernels). `agg_options` controls
/// intra-scan parallelism (pool + per-call worker cap); the defaults use
/// the global pool, and its `op`/`input_level` are set per scan by the
/// builder. Results are bit-identical for every options setting.
CubeResult build_cube_sequential(const DenseArray& root,
                                 BuildStats* stats = nullptr,
                                 AggregateOp op = AggregateOp::kSum,
                                 const AggregateOptions& agg_options = {});

/// Builds the full cube from a chunk-offset sparse root array (the
/// paper's experimental configuration: sparse input, dense outputs).
CubeResult build_cube_sequential(const SparseArray& root,
                                 BuildStats* stats = nullptr,
                                 AggregateOp op = AggregateOp::kSum,
                                 const AggregateOptions& agg_options = {});

}  // namespace cubist
