#include "io/generators.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/mathutil.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace cubist {
namespace {

constexpr std::uint64_t kValueSalt = 0x5eed5a17u;

/// Per-cell population rule shared by all generators: a pure function of
/// (seed, global linear index [, coordinates for the Zipf skew]).
class CellRule {
 public:
  explicit CellRule(const SparseSpec& spec)
      : seed_(spec.seed), density_(spec.density) {
    CUBIST_CHECK(spec.density >= 0.0 && spec.density <= 1.0,
                 "density must be in [0,1]");
    if (spec.zipf_theta > 0.0) {
      weights_.reserve(spec.sizes.size());
      for (std::int64_t extent : spec.sizes) {
        std::vector<double> w(static_cast<std::size_t>(extent));
        double sum = 0.0;
        for (std::int64_t i = 0; i < extent; ++i) {
          w[static_cast<std::size_t>(i)] =
              1.0 / std::pow(static_cast<double>(i + 1), spec.zipf_theta);
          sum += w[static_cast<std::size_t>(i)];
        }
        // Normalize to mean 1.
        const double scale = static_cast<double>(extent) / sum;
        for (double& x : w) x *= scale;
        weights_.push_back(std::move(w));
      }
      calibrate_multiplier(spec);
    }
  }

  /// True without Zipf skew. The rule is then the same for every cell: it
  /// is populated iff populates_all() or population_hash(index) <
  /// threshold(), and a populated cell holds hit_value(index).
  bool uniform() const { return weights_.empty(); }
  std::uint64_t population_hash(std::int64_t global_index) const {
    return cell_hash(seed_, static_cast<std::uint64_t>(global_index));
  }
  std::uint64_t threshold() const { return threshold_of(density_); }
  bool populates_all() const { return density_ >= 1.0; }

  /// Value of a populated cell (1..9).
  Value hit_value(std::int64_t global_index) const {
    return static_cast<Value>(
        1 + cell_hash(seed_ ^ kValueSalt,
                      static_cast<std::uint64_t>(global_index)) %
                9);
  }

  /// Value of the cell at `global_index` (coordinates only needed when the
  /// Zipf skew is active); 0 means empty.
  Value value_at(const std::int64_t* coords, std::int64_t global_index) const {
    double p = density_;
    if (!weights_.empty()) {
      p *= multiplier_;
      for (std::size_t d = 0; d < weights_.size(); ++d) {
        p *= weights_[d][static_cast<std::size_t>(coords[d])];
      }
      p = std::min(p, 1.0);
    }
    if (p < 1.0 && population_hash(global_index) >= threshold_of(p)) {
      return Value{0};
    }
    return hit_value(global_index);
  }

 private:
  static std::uint64_t threshold_of(double p) {
    return p < 1.0 ? static_cast<std::uint64_t>(p * 18446744073709551616.0
                                                 /* 2^64 */)
                   : 0;
  }

  /// Clamping min(1, p) loses mass when the skew pushes p above 1, so the
  /// raw expected density falls short of the target. Calibrate a scalar
  /// multiplier on a fixed deterministic cell sample (a pure function of
  /// the spec, so partition invariance is preserved) such that the clamped
  /// mean hits the target density.
  void calibrate_multiplier(const SparseSpec& spec) {
    if (density_ <= 0.0) return;
    constexpr int kSamples = 4096;
    std::vector<double> products(kSamples);
    SplitMix64 mix(spec.seed ^ 0xCA11B7A7EDULL);
    for (double& product : products) {
      product = 1.0;
      for (std::size_t d = 0; d < weights_.size(); ++d) {
        const auto extent = static_cast<std::uint64_t>(spec.sizes[d]);
        product *= weights_[d][static_cast<std::size_t>(mix.next() % extent)];
      }
    }
    const auto clamped_mean = [&](double multiplier) {
      double sum = 0.0;
      for (double product : products) {
        sum += std::min(1.0, density_ * multiplier * product);
      }
      return sum / kSamples;
    };
    if (clamped_mean(1.0) >= density_) return;  // mild skew: no clamping bite
    double lo = 1.0;
    double hi = 2.0;
    while (clamped_mean(hi) < density_ && hi < 1e12) {
      hi *= 2.0;
    }
    for (int iteration = 0; iteration < 60; ++iteration) {
      const double mid = 0.5 * (lo + hi);
      (clamped_mean(mid) < density_ ? lo : hi) = mid;
    }
    multiplier_ = 0.5 * (lo + hi);
  }

  std::uint64_t seed_;
  double density_;
  double multiplier_ = 1.0;
  std::vector<std::vector<double>> weights_;
};

std::vector<std::int64_t> chunks_or_default(const SparseSpec& spec) {
  return spec.chunk_extents.empty() ? default_chunks(spec.sizes)
                                    : spec.chunk_extents;
}

}  // namespace

std::vector<std::int64_t> default_chunks(
    const std::vector<std::int64_t>& sizes) {
  std::vector<std::int64_t> chunks(sizes.size());
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    chunks[d] = std::min<std::int64_t>(16, sizes[d]);
  }
  return chunks;
}

SparseArray generate_sparse_global(const SparseSpec& spec) {
  const Shape shape{spec.sizes};
  const BlockRange whole(std::vector<std::int64_t>(spec.sizes.size(), 0),
                         spec.sizes);
  return generate_sparse_block(spec, whole);
}

SparseArray generate_sparse_block(const SparseSpec& spec,
                                  const BlockRange& block) {
  obs::Span span("io", "generate");
  const Shape global_shape{spec.sizes};
  const int n = global_shape.ndim();
  CUBIST_CHECK(block.ndim() == n, "block rank mismatch");
  const CellRule rule(spec);
  using Offset = SparseArray::Offset;

  SparseArray out(block.local_shape(), chunks_or_default(spec));
  // Chunk-major walk: each chunk's rows in chunk-local row-major order, so
  // offsets ascend by construction and each chunk is handed over once, in
  // exact-size vectors. Along a row (the last dimension, global stride 1)
  // global indices and chunk offsets both advance by one per cell.
  std::int64_t max_volume = 1;
  for (int d = 0; d < n; ++d) {
    max_volume *= std::min(out.chunk_extents()[d], block.extent(d));
  }
  std::vector<Offset> offsets(static_cast<std::size_t>(max_volume));
  std::vector<Value> values(static_cast<std::size_t>(max_volume));
  const std::uint64_t threshold = rule.threshold();
  const bool all = rule.populates_all();
  std::vector<std::int64_t> chunk_coords(static_cast<std::size_t>(n));
  std::vector<std::int64_t> origin(static_cast<std::size_t>(n));
  std::vector<std::int64_t> cell(static_cast<std::size_t>(n));
  for (std::int64_t c = 0; c < out.num_chunks(); ++c) {
    out.chunk_grid().unravel(c, chunk_coords.data());
    const std::vector<std::int64_t> extents = out.chunk_shape_at(chunk_coords);
    // `origin`: global coordinates of the chunk's first cell; `cell`: of
    // the current row's first cell, whose global linear index is
    // `row_base + origin[n - 1]`.
    std::int64_t row_base = 0;
    for (int d = 0; d < n; ++d) {
      origin[d] = block.lo(d) + chunk_coords[d] * out.chunk_extents()[d];
      cell[d] = origin[d];
      if (d < n - 1) row_base += origin[d] * global_shape.stride(d);
    }
    const std::int64_t inner = extents[n - 1];
    const std::int64_t rows = checked_product(extents) / inner;
    std::size_t k = 0;  // hits so far in this chunk
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t first = row_base + origin[n - 1];
      const auto row_offset = static_cast<Offset>(r * inner);
      if (rule.uniform()) {
        // Compact hits without branching, then value only the hits.
        const std::size_t row_start = k;
        for (std::int64_t i = 0; i < inner; ++i) {
          offsets[k] = row_offset + static_cast<Offset>(i);
          k += static_cast<std::size_t>(
              (rule.population_hash(first + i) < threshold) | all);
        }
        for (std::size_t j = row_start; j < k; ++j) {
          values[j] = rule.hit_value(first + (offsets[j] - row_offset));
        }
      } else {
        for (std::int64_t i = 0; i < inner; ++i) {
          cell[n - 1] = origin[n - 1] + i;
          const Value v = rule.value_at(cell.data(), first + i);
          offsets[k] = row_offset + static_cast<Offset>(i);
          values[k] = v;
          k += static_cast<std::size_t>(v != Value{0});
        }
      }
      for (int d = n - 2; d >= 0; --d) {
        row_base += global_shape.stride(d);
        if (++cell[d] < origin[d] + extents[d]) break;
        cell[d] = origin[d];
        row_base -= extents[d] * global_shape.stride(d);
      }
    }
    const auto hits = static_cast<std::ptrdiff_t>(k);
    out.assign_chunk(
        c, std::vector<Offset>(offsets.begin(), offsets.begin() + hits),
        std::vector<Value>(values.begin(), values.begin() + hits));
  }
  out.finalize();
  span.tag("nnz", out.nnz());
  return out;
}

DenseArray generate_dense(const std::vector<std::int64_t>& sizes,
                          double density, std::uint64_t seed) {
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = density;
  spec.seed = seed;
  return generate_sparse_global(spec).to_dense();
}

SparseArray extract_block(const SparseArray& global, const BlockRange& block,
                          std::vector<std::int64_t> chunk_extents) {
  obs::Span span("io", "extract_block");
  const int n = global.ndim();
  CUBIST_CHECK(block.ndim() == n, "block rank mismatch");
  SparseArray out(block.local_shape(), std::move(chunk_extents));
  // A block cut along the source's chunk boundaries, chunked the same way,
  // is a set of whole source chunks: copy them.
  bool aligned = out.chunk_extents() == global.chunk_extents();
  for (int d = 0; d < n && aligned; ++d) {
    const std::int64_t chunk = global.chunk_extents()[d];
    aligned = block.lo(d) % chunk == 0 &&
              (block.hi(d) % chunk == 0 ||
               block.hi(d) == global.shape().extent(d)) &&
              block.hi(d) <= global.shape().extent(d);
  }
  if (aligned) {
    std::vector<std::int64_t> coords(static_cast<std::size_t>(n));
    for (std::int64_t c = 0; c < out.num_chunks(); ++c) {
      out.chunk_grid().unravel(c, coords.data());
      for (int d = 0; d < n; ++d) {
        coords[d] += block.lo(d) / global.chunk_extents()[d];
      }
      const std::int64_t source =
          global.chunk_grid().linear_index(coords.data());
      const auto offsets = global.chunk_offsets(source);
      const auto values = global.chunk_values(source);
      out.assign_chunk(c, {offsets.begin(), offsets.end()},
                       {values.begin(), values.end()});
    }
  } else {
    std::vector<std::int64_t> local(static_cast<std::size_t>(n));
    global.for_each_nonzero([&](const std::int64_t* index, Value value) {
      if (!block.contains(index)) return;
      block.to_local(index, local.data());
      out.push(local.data(), value);
    });
  }
  out.finalize();
  span.tag("nnz", out.nnz()).tag("chunk_copy", std::int64_t{aligned});
  return out;
}

}  // namespace cubist
