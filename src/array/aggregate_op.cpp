#include "array/aggregate_op.h"

#include "common/error.h"

namespace cubist {

std::string to_string(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return "sum";
    case AggregateOp::kCount:
      return "count";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
  }
  return "?";
}

void fill_identity(AggregateOp op, DenseArray& array) {
  array.fill(identity_of(op));
}

void finalize_view(AggregateOp op, DenseArray& array) {
  if (op == AggregateOp::kSum || op == AggregateOp::kCount) return;
  const Value identity = identity_of(op);
  Value* data = array.data();
  for (std::int64_t i = 0; i < array.size(); ++i) {
    if (data[i] == identity) data[i] = Value{0};
  }
}

void combine_arrays(AggregateOp op, DenseArray& dst, const DenseArray& src) {
  CUBIST_CHECK(dst.shape() == src.shape(), "combine shape mismatch");
  Value* d = dst.data();
  const Value* s = src.data();
  for (std::int64_t i = 0; i < dst.size(); ++i) {
    combine(op, d[i], s[i]);
  }
}

DenseArray average_of(const DenseArray& sum, const DenseArray& count) {
  CUBIST_CHECK(sum.shape() == count.shape(), "average shape mismatch");
  DenseArray avg{sum.shape()};
  for (std::int64_t i = 0; i < sum.size(); ++i) {
    avg[i] = count[i] == Value{0} ? Value{0} : sum[i] / count[i];
  }
  return avg;
}

}  // namespace cubist
