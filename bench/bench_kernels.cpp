// Microbenchmarks of the aggregation kernels — real wall time, real
// throughput (google-benchmark's bread and butter, no virtual clock).
//
// Covers: dense multi-way aggregation vs number of simultaneous targets,
// sparse chunk-offset aggregation vs chunk extent and density and on the
// 6-D serving input, the operator-generic scan under each aggregate
// operator, the concurrent single-thread root scans of a 4-rank build, the
// dense and sparse projection kernels, the hash-sparse generator, and the
// input path of the `build` workload (96^4 generation and its four-block
// partition).
#include <thread>

#include "bench_util.h"

namespace cubist::bench {
namespace {

/// Dense fixtures cached per shape. A function-local `static DenseArray`
/// inside a parameterized benchmark body is a trap: it is initialized
/// from the FIRST invocation's parameters and silently reused for every
/// other argument set. This cache keys on the actual shape instead, and
/// each benchmark re-fetches the array it asked for.
const DenseArray& dense_fixture(const std::vector<std::int64_t>& sizes,
                                std::uint64_t seed) {
  static std::map<std::string, DenseArray> cache;
  std::string key;
  for (std::int64_t s : sizes) {
    key += std::to_string(s);
    key += 'x';
  }
  key += '#';
  key += std::to_string(seed);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const SparseSpec spec{sizes, 1.0, seed, {}, 0.0};
    it = cache.emplace(key, generate_sparse_global(spec).to_dense()).first;
  }
  return it->second;
}

/// Arg 0: simultaneous targets; arg 1: dimensionality (3 => 48^3,
/// 4 => 32x32x32x16). Runs on the global pool, so CUBIST_THREADS selects
/// the parallelism (tools/bench_report.py sweeps it).
void BM_DenseMultiway(benchmark::State& state) {
  const auto num_targets = static_cast<std::size_t>(state.range(0));
  const std::vector<std::int64_t> sizes =
      state.range(1) == 4 ? std::vector<std::int64_t>{32, 32, 32, 16}
                          : std::vector<std::int64_t>{48, 48, 48};
  const DenseArray& parent = dense_fixture(sizes, 3);
  std::vector<DenseArray> children;
  std::vector<AggregationTarget> targets;
  children.reserve(num_targets);
  for (std::size_t pos = 0; pos < num_targets; ++pos) {
    children.emplace_back(parent.shape().without_dim(static_cast<int>(pos)));
  }
  for (std::size_t pos = 0; pos < num_targets; ++pos) {
    targets.push_back({static_cast<int>(pos), &children[pos]});
  }
  for (auto _ : state) {
    const AggregationStats stats = aggregate_children(parent, targets);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * parent.size() *
                          static_cast<std::int64_t>(num_targets));
  state.counters["threads"] =
      static_cast<double>(ThreadPool::global().size());
}
BENCHMARK(BM_DenseMultiway)
    ->Args({1, 3})
    ->Args({2, 3})
    ->Args({3, 3})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({3, 4})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

void BM_SparseMultiwayChunks(benchmark::State& state) {
  const std::int64_t chunk = state.range(0);
  const std::vector<std::int64_t> sizes{64, 64, 64};
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = 0.10;
  spec.seed = 5;
  spec.chunk_extents = {chunk, chunk, chunk};
  const SparseArray parent = generate_sparse_global(spec);
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  for (auto _ : state) {
    const AggregationStats stats = aggregate_children(parent, targets);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * parent.nnz() * 3);
  state.counters["nnz"] = static_cast<double>(parent.nnz());
}
BENCHMARK(BM_SparseMultiwayChunks)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_SparseMultiwayDensity(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  SparseSpec spec;
  spec.sizes = {64, 64, 64};
  spec.density = density;
  spec.seed = 7;
  const SparseArray parent = generate_sparse_global(spec);
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 3; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 3; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  for (auto _ : state) {
    const AggregationStats stats = aggregate_children(parent, targets);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * parent.nnz() * 3);
}
BENCHMARK(BM_SparseMultiwayDensity)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Unit(benchmark::kMillisecond);

/// The `build` workload's input: 96^4 at 10% density, default 16^4 chunks.
SparseSpec build_input_spec() {
  SparseSpec spec;
  spec.sizes = {96, 96, 96, 96};
  spec.density = 0.10;
  spec.seed = 17;
  return spec;
}

/// The serving workloads' input: 32x24x16x12x10x8 at 10% density,
/// default chunks (16x16x16x12x10x8; dimension 1 has a clipped last chunk).
SparseSpec serving_input_spec() {
  SparseSpec spec;
  spec.sizes = {32, 24, 16, 12, 10, 8};
  spec.density = 0.10;
  spec.seed = 19;
  return spec;
}

/// The 6-D root scan: one pass over the serving input producing all six
/// first-level views, as the root scan of a 6-D cube build does.
void BM_SparseMultiway6D(benchmark::State& state) {
  const SparseArray parent = generate_sparse_global(serving_input_spec());
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 6; ++pos) {
    children.emplace_back(parent.shape().without_dim(pos));
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 6; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  for (auto _ : state) {
    const AggregationStats stats = aggregate_children(parent, targets);
    benchmark::DoNotOptimize(stats);
    benchmark::DoNotOptimize(children.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * parent.nnz() * 6);
  state.counters["nnz"] = static_cast<double>(parent.nnz());
}
BENCHMARK(BM_SparseMultiway6D)->Unit(benchmark::kMillisecond);

/// One input-level scan producing all four children of a 32x32x32x16
/// parent under `op`, as a cube build's root scan does: the dense input of
/// BM_DenseMultiway/4/4, or the same shape at 10% density, sparse (default
/// 16^4 chunks). Every operator runs the same owner-computes kernel, so
/// its rows should track the SUM rows.
void BM_OperatorScan(benchmark::State& state, AggregateOp op, bool sparse) {
  const std::vector<std::int64_t> sizes{32, 32, 32, 16};
  SparseSpec spec;
  spec.sizes = sizes;
  spec.density = 0.10;
  spec.seed = 13;
  const SparseArray sparse_parent = generate_sparse_global(spec);
  const DenseArray& dense_parent = dense_fixture(sizes, 3);
  std::vector<DenseArray> children;
  for (int pos = 0; pos < 4; ++pos) {
    children.emplace_back(dense_parent.shape().without_dim(pos));
    fill_identity(op, children.back());
  }
  std::vector<AggregationTarget> targets;
  for (int pos = 0; pos < 4; ++pos) {
    targets.push_back({pos, &children[static_cast<std::size_t>(pos)]});
  }
  const AggregateOptions options{.op = op, .input_level = true};
  for (auto _ : state) {
    const AggregationStats stats =
        sparse ? aggregate_children(sparse_parent, targets, options)
               : aggregate_children(dense_parent, targets, options);
    benchmark::DoNotOptimize(stats);
  }
  const std::int64_t cells =
      sparse ? sparse_parent.nnz() : dense_parent.size();
  state.SetItemsProcessed(state.iterations() * cells * 4);
}
BENCHMARK_CAPTURE(BM_OperatorScan, sum/dense, AggregateOp::kSum, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OperatorScan, count/dense, AggregateOp::kCount, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OperatorScan, min/dense, AggregateOp::kMin, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OperatorScan, max/dense, AggregateOp::kMax, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OperatorScan, sum/sparse10, AggregateOp::kSum, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OperatorScan, count/sparse10, AggregateOp::kCount, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OperatorScan, min/sparse10, AggregateOp::kMin, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OperatorScan, max/sparse10, AggregateOp::kMax, true)
    ->Unit(benchmark::kMillisecond);

/// The scan phase of a 4-rank build: the root scans of the four 2x2x1x1
/// blocks of 96^4 at 10% density (sparse, default 16^4 chunks), run at
/// once on one thread each, as the ranks of a 4-rank build on a 4-thread
/// pool do. Each rank allocates its four children fresh every iteration,
/// as the builder does, so page faults on the outputs are part of the time.
void BM_ConcurrentRankScans(benchmark::State& state) {
  static const std::vector<SparseArray> blocks = [] {
    SparseSpec spec;
    spec.sizes = {96, 96, 96, 96};
    spec.density = 0.10;
    spec.seed = 17;
    const ProcGrid grid({1, 1, 0, 0});
    std::vector<SparseArray> out;
    for (int r = 0; r < grid.size(); ++r) {
      out.push_back(generate_sparse_block(spec, grid.block(r, spec.sizes)));
    }
    return out;
  }();
  std::int64_t nnz = 0;
  for (const SparseArray& block : blocks) nnz += block.nnz();
  for (auto _ : state) {
    std::vector<std::thread> ranks;
    for (const SparseArray& block : blocks) {
      ranks.emplace_back([&block] {
        std::vector<DenseArray> children;
        children.reserve(4);
        std::vector<AggregationTarget> targets;
        for (int pos = 0; pos < 4; ++pos) {
          children.emplace_back(block.shape().without_dim(pos));
          targets.push_back({pos, &children.back()});
        }
        const AggregationStats stats =
            aggregate_children(block, targets, {.max_workers = 1});
        benchmark::DoNotOptimize(stats);
      });
    }
    for (std::thread& rank : ranks) rank.join();
  }
  state.SetItemsProcessed(state.iterations() * nnz * 4);
}
BENCHMARK(BM_ConcurrentRankScans)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_Projection(benchmark::State& state) {
  const DenseArray& parent = dense_fixture({48, 48, 48}, 9);
  DenseArray out{Shape{{48}}};
  for (auto _ : state) {
    out.fill(0);
    const AggregationStats stats = project(parent, {1}, &out);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * parent.size());
}
BENCHMARK(BM_Projection)->Unit(benchmark::kMillisecond);

/// Sparse project() from an input to one first-level view (dimension 0
/// dropped), as PartialCube::build and the serving miss path do for views
/// routed to the input. Arg: 4 => the 96^4 `build` input, 6 => the 6-D
/// serving input.
void BM_ProjectSparse(benchmark::State& state) {
  static std::map<std::int64_t, SparseArray> cache;
  auto it = cache.find(state.range(0));
  if (it == cache.end()) {
    const SparseSpec spec =
        state.range(0) == 4 ? build_input_spec() : serving_input_spec();
    it = cache.emplace(state.range(0), generate_sparse_global(spec)).first;
  }
  const SparseArray& parent = it->second;
  std::vector<int> kept;
  for (int d = 1; d < parent.ndim(); ++d) kept.push_back(d);
  DenseArray out{parent.shape().without_dim(0)};
  for (auto _ : state) {
    const AggregationStats stats = project(parent, kept, &out);
    benchmark::DoNotOptimize(stats);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * parent.nnz());
  state.counters["nnz"] = static_cast<double>(parent.nnz());
}
BENCHMARK(BM_ProjectSparse)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_Generator(benchmark::State& state) {
  SparseSpec spec;
  spec.sizes = {64, 64, 64};
  spec.density = static_cast<double>(state.range(0)) / 100.0;
  spec.seed = 11;
  for (auto _ : state) {
    const SparseArray data = generate_sparse_global(spec);
    benchmark::DoNotOptimize(data.nnz());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 64);
}
BENCHMARK(BM_Generator)->Arg(5)->Arg(25)->Unit(benchmark::kMillisecond);

void BM_GenerateSparse(benchmark::State& state) {
  const SparseSpec spec = build_input_spec();
  std::int64_t nnz = 0;
  for (auto _ : state) {
    const SparseArray data = generate_sparse_global(spec);
    nnz = data.nnz();
    benchmark::DoNotOptimize(nnz);
  }
  state.counters["nnz"] = static_cast<double>(nnz);
  state.SetItemsProcessed(state.iterations() * 96 * 96 * 96 * 96);
}
BENCHMARK(BM_GenerateSparse)->Unit(benchmark::kMillisecond);

/// Partitions the 96^4 input into the four 2x2x1x1 blocks of a 4-rank
/// build. The blocks line up with whole 16^4 chunks.
void BM_ExtractBlock(benchmark::State& state) {
  static const SparseArray global = generate_sparse_global(build_input_spec());
  const ProcGrid grid({1, 1, 0, 0});
  for (auto _ : state) {
    for (int r = 0; r < grid.size(); ++r) {
      const BlockRange block = grid.block(r, global.shape().extents());
      const SparseArray local =
          extract_block(global, block, default_chunks(block.extents()));
      benchmark::DoNotOptimize(local.nnz());
    }
  }
  state.SetItemsProcessed(state.iterations() * global.nnz());
}
BENCHMARK(BM_ExtractBlock)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cubist::bench

BENCHMARK_MAIN();
