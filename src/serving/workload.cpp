#include "serving/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "lattice/cube_lattice.h"

namespace cubist::serving {

namespace {

// Universe enumeration walks every view; per view it emits slices (every
// dimension position x every index), uniform roll-ups, one lower-half
// dice, top-ks, and a few point probes. Driven by the view's SHAPE only,
// so the full-cube and lattice constructors emit identical descriptors.
void enumerate_view(const Shape& shape, DimSet view,
                    std::vector<Query>* out) {
  const int m = shape.ndim();
  if (m == 0) {
    out->push_back(Query::point(view, {}));
    return;
  }
  for (int dim = 0; dim < m; ++dim) {
    const std::int64_t extent = shape.extent(dim);
    for (std::int64_t index = 0; index < extent; ++index) {
      out->push_back(Query::slice(view, dim, index));
    }
    for (std::int64_t factor : {2, 4}) {
      if (extent < factor) continue;
      std::vector<std::int64_t> mapping(static_cast<std::size_t>(extent));
      for (std::int64_t i = 0; i < extent; ++i) {
        mapping[static_cast<std::size_t>(i)] = i / factor;
      }
      out->push_back(Query::rollup(view, dim, std::move(mapping),
                                   (extent + factor - 1) / factor));
    }
  }
  std::vector<std::int64_t> lo(static_cast<std::size_t>(m), 0);
  std::vector<std::int64_t> hi(static_cast<std::size_t>(m));
  bool nonempty = true;
  for (int dim = 0; dim < m; ++dim) {
    const std::int64_t extent = shape.extent(dim);
    hi[static_cast<std::size_t>(dim)] = std::max<std::int64_t>(1, extent / 2);
    nonempty = nonempty && extent >= 1;
  }
  if (nonempty) {
    out->push_back(Query::dice(view, lo, hi));
  }
  for (int k : {8, 32}) {
    out->push_back(Query::top_k(view, k));
  }
  // Point probes at deterministic positions spread across the view.
  const std::int64_t cells = shape.size();
  for (std::int64_t probe = 0; probe < 4 && probe < cells; ++probe) {
    const std::int64_t linear = (probe * cells) / 4;
    std::vector<std::int64_t> coords(static_cast<std::size_t>(m));
    shape.unravel(linear, coords.data());
    out->push_back(Query::point(view, std::move(coords)));
  }
}

}  // namespace

WorkloadGenerator::WorkloadGenerator(const CubeResult& cube, WorkloadSpec spec)
    : spec_(spec), rng_(spec.seed) {
  CUBIST_CHECK(cube.num_views() > 0, "workload needs a non-empty cube");
  for (DimSet view : cube.stored_views()) {
    enumerate_view(cube.view(view).shape(), view, &universe_);
  }
  finalize();
}

WorkloadGenerator::WorkloadGenerator(const std::vector<std::int64_t>& sizes,
                                     WorkloadSpec spec)
    : spec_(spec), rng_(spec.seed) {
  CUBIST_CHECK(!sizes.empty(), "workload needs at least one dimension");
  CUBIST_CHECK(sizes.size() <= 16, "universe enumeration is exponential");
  const CubeLattice lattice(sizes);
  const DimSet root = DimSet::full(lattice.ndims());
  for (DimSet view : lattice.all_views()) {
    if (view == root) continue;
    enumerate_view(view_shape(sizes, view), view, &universe_);
  }
  finalize();
}

void WorkloadGenerator::finalize() {
  CUBIST_CHECK(spec_.max_universe >= 1, "max_universe must be positive");
  CUBIST_CHECK(spec_.zipf_exponent > 0.0, "zipf exponent must be positive");
  CUBIST_ASSERT(!universe_.empty(), "universe enumeration produced nothing");
  // Deterministic Fisher-Yates with a fixed (spec-independent) seed so
  // Zipf ranks interleave query classes instead of clustering the hot
  // head on one kind; the cap keeps the head-vs-tail ratio meaningful.
  Xoshiro256ss shuffle_rng(0x5eed5eed5eedULL);
  for (std::size_t i = universe_.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(shuffle_rng.next_below(i + 1));
    std::swap(universe_[i], universe_[j]);
  }
  if (static_cast<int>(universe_.size()) > spec_.max_universe) {
    universe_.resize(static_cast<std::size_t>(spec_.max_universe));
  }
  if (spec_.skew == WorkloadSpec::Skew::kZipfian) {
    zipf_cdf_.reserve(universe_.size());
    double total = 0.0;
    for (std::size_t r = 0; r < universe_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1),
                              spec_.zipf_exponent);
      zipf_cdf_.push_back(total);
    }
  }
}

std::size_t WorkloadGenerator::next_rank() {
  if (spec_.skew == WorkloadSpec::Skew::kUniform) {
    return static_cast<std::size_t>(rng_.next_below(universe_.size()));
  }
  const double u = rng_.next_double() * zipf_cdf_.back();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(it - zipf_cdf_.begin());
  return std::min(rank, universe_.size() - 1);
}

Query WorkloadGenerator::next() { return universe_[next_rank()]; }

std::vector<Query> WorkloadGenerator::batch(int n) {
  CUBIST_CHECK(n >= 0, "batch size must be non-negative");
  std::vector<Query> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(next());
  return out;
}

}  // namespace cubist::serving
