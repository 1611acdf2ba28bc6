// Generalized aggregation operators (extension; the paper fixes SUM).
//
// The cube operator is defined for any distributive aggregate; cubist
// supports SUM, COUNT, MIN and MAX end to end (sequential, parallel,
// tiled). AVG is derived: build a SUM cube and a COUNT cube in two passes
// and divide (`average_of`).
//
// Distributive aggregates share one algebra (an identity and an
// associative, commutative combine), so one kernel family serves them
// all: the owner-computes multi-way scans of array/aggregate.h are
// templated on the operator and dispatched once per scan through
// `AggregateOptions::op`. Every operator therefore gets the same split and
// the same pool and thread-count-invariant bit-identity; the SUM
// instantiation performs exactly the arithmetic of a plain `+=` kernel.
//
// Empty-cell semantics: a zero cell of a dense array and an absent cell
// of a sparse array both mean "no measurement". While an aggregate view
// is live, empty cells hold the operator's identity (0 for SUM/COUNT,
// +inf/-inf for MIN/MAX) so deeper aggregation levels and parallel
// reductions stay correct; `finalize_view` replaces leftover identities
// with 0 at write-back so persisted views never contain infinities.
#pragma once

#include <limits>
#include <string>

#include "array/dense_array.h"

namespace cubist {

enum class AggregateOp {
  kSum,
  kCount,
  kMin,
  kMax,
};

/// Human-readable operator name ("sum", "count", ...).
std::string to_string(AggregateOp op);

/// The operator's identity element (what live empty cells hold).
constexpr Value identity_of(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kCount:
      return Value{0};
    case AggregateOp::kMin:
      return std::numeric_limits<Value>::infinity();
    case AggregateOp::kMax:
      return -std::numeric_limits<Value>::infinity();
  }
  return Value{0};
}

/// accumulator <- accumulator (op) contribution.
constexpr void combine(AggregateOp op, Value& accumulator, Value value) {
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kCount:
      accumulator += value;
      break;
    // Select form (not a conditional store) so row loops vectorize.
    case AggregateOp::kMin:
      accumulator = value < accumulator ? value : accumulator;
      break;
    case AggregateOp::kMax:
      accumulator = value > accumulator ? value : accumulator;
      break;
  }
}

/// The contribution a single *input* cell makes (COUNT maps values to 1;
/// the others pass the value through).
constexpr Value contribution_of(AggregateOp op, Value value) {
  return op == AggregateOp::kCount ? Value{1} : value;
}

/// Fills `array` with the operator's identity (builders call this right
/// after allocating a child view).
void fill_identity(AggregateOp op, DenseArray& array);

/// Replaces leftover identity cells with 0 before a view is written back.
/// No-op for SUM/COUNT.
void finalize_view(AggregateOp op, DenseArray& array);

/// Elementwise combine of two partial aggregate views (the parallel
/// reduction step): dst <- dst (op) src.
void combine_arrays(AggregateOp op, DenseArray& dst, const DenseArray& src);

/// AVG derived from a SUM view and a COUNT view of the same shape
/// (cells with count 0 yield 0).
DenseArray average_of(const DenseArray& sum, const DenseArray& count);

}  // namespace cubist
