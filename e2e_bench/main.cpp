// cubist_e2e — end-to-end benchmark program for the cubist library.
//
// Uses the library from outside, through the umbrella header only, and
// runs one of three workloads in this process with at most four busy
// threads:
//
//   build        96^4 at 10% density; each round runs a 4-rank SUM build
//                (greedy 2x2x1x1 grid, gathered to a CubeResult), the
//                sequential SUM build on a 4-thread and a 1-thread pool,
//                and a 4-rank MAX build.
//   serve-zipf   6-D 32x24x16x12x10x8 at 10%, served as a PartialCube of
//                the HRU k=8 views with a 16 MiB slice cache to four
//                closed-loop clients drawing a Zipf s=1.2 stream.
//   serve-shift  as serve-zipf, but the stream's hot set moves every
//                phase and one client replans mid-phase while the others
//                keep querying.
//
// Every timed answer is checked: each built cube bitwise against SUM/MAX
// references made in set-up, and a seeded sample of served answers
// (plus one query per kind and per route) bitwise against a full-cube
// oracle engine. Exceptions and mismatches are failures; any failure
// makes the exit code non-zero.
//
// With --trace 1 the timed window is split: an untraced half, then a
// traced half with the obs::Tracer on and benchmark-side spans around
// every public call. The traced half writes a Chrome/Perfetto trace and a
// per-layer self-time table whose rows plus `unattributed` sum to the
// traced total.
//
// The last stdout line is one JSON object with every metric measured
// (value, unit, direction, and sample count/tail for timings); run.py
// selects from it the metrics BENCHMARK.json names.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cubist/cubist.h"

namespace {

using cubist::AggregateOp;
using cubist::AncestorTable;
using cubist::BuildStats;
using cubist::CostModel;
using cubist::CubeLattice;
using cubist::CubeResult;
using cubist::DenseArray;
using cubist::DimSet;
using cubist::ParallelCubeReport;
using cubist::ParallelOptions;
using cubist::PartialCube;
using cubist::SparseArray;
using cubist::SparseSpec;
using cubist::ThreadPool;
using cubist::serving::Query;
using cubist::serving::QueryEngine;
using cubist::serving::QueryEngineOptions;
using cubist::serving::QueryKind;
using cubist::serving::QueryResult;
using cubist::serving::WorkloadGenerator;
using cubist::serving::WorkloadSpec;
namespace obs = cubist::obs;

constexpr int kClients = 4;
constexpr int kSetupRepeats = 3;

// ---------------------------------------------------------------- args --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  bool tiny = false;         // self-test shapes
  bool plant_error = false;  // perturb one reference/oracle cell
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cubist_e2e: " << why << "\n"
            << "usage: cubist_e2e --workload build|serve-zipf|serve-shift"
               " [--seed N] [--seconds S] [--trace 0|1] [--out DIR]"
               " [--tiny] [--plant-error]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (flag == "--out") {
        args.out_dir = value();
      } else if (flag == "--tiny") {
        args.tiny = true;
      } else if (flag == "--plant-error") {
        args.plant_error = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.workload != "build" && args.workload != "serve-zipf" &&
      args.workload != "serve-shift") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

// ------------------------------------------------------------- helpers --

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Pins the calling thread to the `index`-th CPU the process may use, so
// the four clients land on the same CPUs in every run. No-op when the
// affinity mask has fewer CPUs.
void pin_to_cpu(int index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == index) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Interpolated quantile of an ascending-sorted sample.
double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// A timing's median plus its tail: the highest percentile with at least
// ten samples beyond it, capped at p99 (beyond p99 a run's few slowest
// samples would decide the figure).
struct Dist {
  std::int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 50.0;
};

Dist summarize(std::vector<double> samples) {
  Dist d;
  d.n = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return d;
  std::sort(samples.begin(), samples.end());
  d.p50 = sorted_quantile(samples, 0.5);
  double q = 0.5;
  if (d.n >= 20) q = std::min(0.99, 1.0 - 10.0 / static_cast<double>(d.n));
  d.tail = sorted_quantile(samples, q);
  d.tail_pct = q * 100.0;
  return d;
}

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
  std::int64_t n = 0;  // sample count (timings); 0 = a single measurement
  double tail = 0.0;
  double tail_pct = 0.0;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& better) {
    Metric m;
    m.name = name;
    m.value = std::isfinite(value) ? value : 0.0;
    m.unit = unit;
    m.better = better;
    set(std::move(m));
  }
  // A timing: the median, with sample count and tail percentile.
  void add_dist(const std::string& name, const Dist& d, double scale,
                const std::string& unit) {
    Metric m;
    m.name = name;
    m.value = d.p50 * scale;
    m.unit = unit;
    m.better = "lower";
    m.n = d.n;
    m.tail = d.tail * scale;
    m.tail_pct = d.tail_pct;
    set(std::move(m));
  }
  // Adds `name` = 0 unless the workload measured it.
  void add_idle(const std::string& name, const std::string& unit,
                const std::string& better) {
    for (const Metric& existing : metrics_) {
      if (existing.name == name) return;
    }
    add(name, 0.0, unit, better);
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  void set(Metric m) {
    for (Metric& existing : metrics_) {
      if (existing.name == m.name) {
        existing = std::move(m);
        return;
      }
    }
    metrics_.push_back(std::move(m));
  }
  std::vector<Metric> metrics_;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ------------------------------------------------------ correctness gate --

class Gate {
 public:
  void attempt(std::int64_t n = 1) { attempted_.fetch_add(n); }
  void fail(const std::string& what) {
    failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    if (++reported_ <= 10) std::cerr << "cubist_e2e: FAILED: " << what << "\n";
  }
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  std::int64_t attempted() const { return attempted_.load(); }
  std::int64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  std::mutex mutex_;
  int reported_ = 0;
};

bool same_bits(const DenseArray& a, const DenseArray& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.bytes())) == 0;
}

bool same_cube(const CubeResult& a, const CubeResult& b) {
  const std::vector<DimSet> views = a.stored_views();
  if (views != b.stored_views()) return false;
  for (DimSet v : views) {
    if (!same_bits(a.view(v), b.view(v))) return false;
  }
  return true;
}

bool same_result(const QueryResult& a, const QueryResult& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case QueryKind::kPoint:
      return std::memcmp(&a.scalar, &b.scalar, sizeof(a.scalar)) == 0;
    case QueryKind::kTopK:
      if (a.topk.size() != b.topk.size()) return false;
      for (std::size_t i = 0; i < a.topk.size(); ++i) {
        if (a.topk[i].first != b.topk[i].first ||
            std::memcmp(&a.topk[i].second, &b.topk[i].second,
                        sizeof(a.topk[i].second)) != 0) {
          return false;
        }
      }
      return true;
    default:
      return same_bits(a.array, b.array);
  }
}

// ------------------------------------------------- traced self-time table --

// Layer a span's self time is charged to. Spans whose self time is the
// main thread waiting for other threads (rank threads inside
// build/parallel_run, client threads inside bench/clients) are "parked":
// that wall time is counted on the threads doing the work instead.
constexpr std::string_view kParked = "(parked)";
constexpr std::string_view kUnattributed = "unattributed";

std::string_view layer_of(std::string_view category, std::string_view name) {
  if (category == "bench") {
    if (name == "provide") return "io";
    if (name == "execute" || name == "replan") return "serving";
    if (name == "ancestor_table_build") return "lattice";
    if (name == "clients") return kParked;
    if (name == "client") return kUnattributed;  // the client loop itself
    return "core";  // run_parallel_cube, build_cube_sequential, selection
  }
  if (category == "build") {
    if (name == "scan_input" || name == "scan_view") return "array";
    if (name == "parallel_run") return kParked;
    return "core";
  }
  if (category == "comm" || category == "runtime") return "minimpi";
  if (category == "serving") return "serving";
  return kUnattributed;
}

struct LayerTable {
  std::map<std::string, double> rows;  // layer -> self seconds
  double unattributed = 0.0;
  double total = 0.0;
  // Per "category/name": summed duration, summed self time and count.
  std::map<std::string, double> span_total;
  std::map<std::string, double> span_self;
  std::map<std::string, std::int64_t> span_count;
  std::int64_t records = 0;
  std::int64_t dropped = 0;
};

// Thread-lane accounting over the traced window [t0, t1]. The main thread
// is a lane for the whole window; every other thread (rank, client) is a
// lane for the union of its top-level spans. Each span's self time
// (duration minus its same-thread children) goes to its layer's row;
// main-thread gaps between spans and the client-loop spans go to
// `unattributed`; parked time leaves both the rows and the total. So the
// rows plus `unattributed` equal the total by construction.
LayerTable self_time_table(const obs::TraceCapture& capture,
                           std::uint64_t t0_ns, std::uint64_t t1_ns) {
  LayerTable table;
  table.records = capture.total_records();
  table.dropped = capture.total_dropped();
  const double window = static_cast<double>(t1_ns - t0_ns) * 1e-9;
  for (const obs::ThreadCapture& thread : capture.threads) {
    std::vector<const obs::TraceRecord*> spans;
    for (const obs::TraceRecord& r : thread.records) {
      if (!r.instant) spans.push_back(&r);
    }
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceRecord* a, const obs::TraceRecord* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->duration_ns > b->duration_ns;
              });
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::size_t> stack;
    double top_level = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const obs::TraceRecord& r = *spans[i];
      while (!stack.empty()) {
        const obs::TraceRecord& top = *spans[stack.back()];
        if (top.start_ns + top.duration_ns > r.start_ns) break;
        stack.pop_back();
      }
      if (stack.empty()) {
        top_level += static_cast<double>(r.duration_ns) * 1e-9;
      } else {
        child_ns[stack.back()] += static_cast<double>(r.duration_ns);
      }
      stack.push_back(i);
    }
    const bool main_lane = thread.tid == obs::kTidMain;
    double lane = main_lane ? window : top_level;
    if (main_lane) table.unattributed += std::max(0.0, window - top_level);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const obs::TraceRecord& r = *spans[i];
      const double self =
          std::max(0.0, static_cast<double>(r.duration_ns) - child_ns[i]) *
          1e-9;
      const std::string key = std::string(r.category) + "/" + r.name;
      table.span_total[key] += static_cast<double>(r.duration_ns) * 1e-9;
      table.span_self[key] += self;
      table.span_count[key] += 1;
      const std::string_view layer = layer_of(r.category, r.name);
      if (layer == kParked) {
        lane -= self;
      } else if (layer == kUnattributed) {
        table.unattributed += self;
      } else {
        table.rows[std::string(layer)] += self;
      }
    }
    table.total += lane;
  }
  return table;
}

void add_layer_metrics(Metrics& m, const LayerTable& t) {
  for (const char* layer :
       {"io", "array", "core", "lattice", "minimpi", "serving"}) {
    const auto it = t.rows.find(layer);
    m.add(std::string("self.") + layer + "_s",
          it == t.rows.end() ? 0.0 : it->second, "s", "lower");
  }
  m.add("self.unattributed_s", t.unattributed, "s", "lower");
  m.add("self.total_s", t.total, "s", "lower");
  m.add("obs.trace_records", static_cast<double>(t.records), "count",
        "lower");
  m.add("obs.trace_dropped", static_cast<double>(t.dropped), "count",
        "lower");
}

std::string layer_table_text(const LayerTable& t) {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %12s %8s\n", "layer", "self_s",
                "share");
  out << line;
  double sum = 0.0;
  auto row = [&](const std::string& name, double v) {
    std::snprintf(line, sizeof(line), "%-14s %12.6f %7.2f%%\n", name.c_str(),
                  v, t.total > 0 ? 100.0 * v / t.total : 0.0);
    out << line;
    sum += v;
  };
  for (const auto& [layer, v] : t.rows) row(layer, v);
  row(std::string(kUnattributed), t.unattributed);
  std::snprintf(line, sizeof(line), "%-14s %12.6f (rows sum %.6f)\n", "total",
                t.total, sum);
  out << line << "\n";
  std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  out << line;
  for (const auto& [key, total] : t.span_total) {
    std::snprintf(line, sizeof(line), "%-28s %8lld %12.6f %12.6f\n",
                  key.c_str(),
                  static_cast<long long>(t.span_count.at(key)), total,
                  t.span_self.at(key));
    out << line;
  }
  if (t.dropped > 0) {
    out << "WARNING: " << t.dropped
        << " trace records dropped; the table undercounts\n";
  }
  return out.str();
}

// Starts a traced window: fresh buffers of `capacity` records per thread.
std::uint64_t begin_trace(std::int64_t capacity) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_buffer_capacity(capacity);
  tracer.reset();
  tracer.set_enabled(true);
  return obs::trace_now_ns();
}

LayerTable end_trace(const Args& args, std::uint64_t t0_ns) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  const std::uint64_t t1_ns = obs::trace_now_ns();
  const obs::TraceCapture capture = tracer.capture();
  LayerTable table = self_time_table(capture, t0_ns, t1_ns);
  const std::string stem = args.out_dir + "/" + args.workload + "-s" +
                           std::to_string(args.seed);
  std::ofstream(stem + ".trace.json") << capture.to_chrome_json();
  const std::string text = layer_table_text(table);
  std::ofstream(stem + ".layers.txt") << text;
  std::cout << "traced self time by layer (" << stem << ".trace.json):\n"
            << text;
  tracer.reset();
  return table;
}

// ------------------------------------------------------------ workloads --

// Runs `setup` kSetupRepeats times (keeping only the last fixture alive at
// a time) and reports the median set-up wall time.
template <typename Fixture, typename Setup>
std::unique_ptr<Fixture> repeated_setup(Metrics& m, Setup&& setup) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();
    const double t = now_s();
    fixture = setup();
    times.push_back(now_s() - t);
  }
  m.add("setup_s", median_of(times), "s", "lower");
  return fixture;
}

// ---- build ----

struct BuildFixture {
  SparseSpec spec;
  std::vector<int> log_splits;
  std::optional<SparseArray> global;
  std::vector<SparseArray> blocks;
  std::optional<CubeResult> ref_sum;
  std::optional<CubeResult> ref_max;
  double gen_s = 0.0;
};

struct BuildSamples {
  std::vector<double> round_s, sum_s, seq_s, seq1_s, max_s, provide_s;
  std::int64_t parallel_builds = 0;
  std::optional<ParallelCubeReport> first_sum;  // cube dropped
  BuildStats first_seq;
};

class BuildWorkload {
 public:
  BuildWorkload(const Args& args, Gate& gate)
      : args_(args), gate_(gate), pool4_(4), pool1_(1) {}

  void run(Metrics& m) {
    fixture_ = repeated_setup<BuildFixture>(m, [&] { return setup(); });
    m.add("io.gen_s", fixture_->gen_s, "s", "lower");

    const double timed = args_.trace ? args_.seconds / 2 : args_.seconds;
    BuildSamples plain = rounds(timed, /*max_rounds=*/0);
    report(m, plain);

    if (args_.trace) {
      const double round_untraced = median_of(plain.round_s);
      const std::uint64_t t0 = begin_trace(4096);
      BuildSamples traced = rounds(timed, /*max_rounds=*/3);
      const LayerTable table = end_trace(args_, t0);
      add_layer_metrics(m, table);
      const double builds = static_cast<double>(traced.parallel_builds);
      auto per_build = [&](const char* key, bool self) {
        const auto& map = self ? table.span_self : table.span_total;
        const auto it = map.find(key);
        return it == map.end() ? 0.0 : it->second / builds;
      };
      m.add("array.scan_s",
            per_build("build/scan_input", true) +
                per_build("build/scan_view", true),
            "s", "lower");
      m.add("minimpi.reduce_s", per_build("comm/reduce", false), "s",
            "lower");
      m.add("minimpi.rank_wait_s", per_build("runtime/rank", true), "s",
            "lower");
      m.add("core.gather_s", per_build("build/gather", false), "s", "lower");
      m.add("obs.trace_overhead_frac",
            median_of(traced.round_s) / round_untraced - 1.0, "ratio",
            "lower");
    }
  }

 private:
  ParallelOptions options(AggregateOp op) {
    ParallelOptions o;
    o.op = op;
    o.pool = &pool4_;
    return o;
  }

  std::unique_ptr<BuildFixture> setup() {
    auto f = std::make_unique<BuildFixture>();
    f->spec.sizes = args_.tiny ? std::vector<std::int64_t>{12, 10, 8, 8}
                               : std::vector<std::int64_t>{96, 96, 96, 96};
    f->spec.density = 0.10;
    f->spec.seed = args_.seed;
    const double t = now_s();
    f->global.emplace(cubist::generate_sparse_global(f->spec));
    f->log_splits = cubist::greedy_partition(f->spec.sizes, 2);
    const cubist::ProcGrid grid(f->log_splits);
    for (int r = 0; r < grid.size(); ++r) {
      const cubist::BlockRange block = grid.block(r, f->spec.sizes);
      f->blocks.push_back(cubist::extract_block(
          *f->global, block, cubist::default_chunks(block.extents())));
    }
    f->gen_s = now_s() - t;
    cubist::AggregateOptions agg;
    agg.pool = &pool4_;
    f->ref_sum = cubist::build_cube_sequential(*f->global, nullptr,
                                               AggregateOp::kSum, agg);
    f->ref_max = cubist::build_cube_sequential(*f->global, nullptr,
                                               AggregateOp::kMax, agg);
    if (args_.plant_error) {
      DenseArray& cell_owner =
          f->ref_sum->mutable_view(f->ref_sum->stored_views().front());
      cell_owner[0] += 1.0;
    }
    // One untimed, audited run: static schedule verification before the
    // ranks start, measured per-view volume against the plan after.
    ParallelOptions audited = options(AggregateOp::kSum);
    audited.verify_schedule = true;
    audited.audit_volume = true;
    gate_.attempt();
    try {
      const ParallelCubeReport r = cubist::run_parallel_cube(
          f->spec.sizes, f->log_splits, CostModel{}, provider(*f), true,
          audited);
      gate_.check(r.cube && same_cube(*r.cube, *f->ref_sum),
                  "audited 4-rank SUM build differs from the reference");
    } catch (const std::exception& e) {
      gate_.fail(std::string("audited 4-rank build threw: ") + e.what());
    }
    return f;
  }

  cubist::BlockProvider provider(const BuildFixture& f) {
    return [this, &f](int rank, const cubist::BlockRange&) {
      obs::Span span("bench", "provide");
      const double t = now_s();
      SparseArray block = f.blocks[static_cast<std::size_t>(rank)];
      provide_ns_.fetch_add(static_cast<std::int64_t>((now_s() - t) * 1e9));
      return block;
    };
  }

  // One timed 4-rank build; returns its wall seconds (or -1 on failure).
  double parallel_build(AggregateOp op, const CubeResult& ref,
                        BuildSamples& s) {
    const BuildFixture& f = *fixture_;
    gate_.attempt();
    try {
      provide_ns_.store(0);
      obs::Span span("bench", "run_parallel_cube");
      const double t = now_s();
      ParallelCubeReport r = cubist::run_parallel_cube(
          f.spec.sizes, f.log_splits, CostModel{}, provider(f), true,
          options(op));
      const double wall = now_s() - t;
      span.end();
      s.parallel_builds += 1;
      gate_.check(r.cube && same_cube(*r.cube, ref),
                  std::string("4-rank ") +
                      (op == AggregateOp::kSum ? "SUM" : "MAX") +
                      " build differs from the reference");
      if (op == AggregateOp::kSum) {
        s.provide_s.push_back(static_cast<double>(provide_ns_.load()) * 1e-9);
        if (!s.first_sum) {
          r.cube.reset();
          s.first_sum = std::move(r);
        }
      }
      return wall;
    } catch (const std::exception& e) {
      gate_.fail(std::string("4-rank build threw: ") + e.what());
      return -1.0;
    }
  }

  double sequential_build(ThreadPool& pool, BuildSamples& s) {
    const BuildFixture& f = *fixture_;
    gate_.attempt();
    try {
      cubist::AggregateOptions agg;
      agg.pool = &pool;
      BuildStats stats;
      obs::Span span("bench", "build_cube_sequential");
      const double t = now_s();
      const CubeResult cube = cubist::build_cube_sequential(
          *f.global, &stats, AggregateOp::kSum, agg);
      const double wall = now_s() - t;
      span.end();
      gate_.check(same_cube(cube, *f.ref_sum),
                  "sequential SUM build differs from the reference");
      if (s.first_seq.cells_scanned == 0) s.first_seq = stats;
      return wall;
    } catch (const std::exception& e) {
      gate_.fail(std::string("sequential build threw: ") + e.what());
      return -1.0;
    }
  }

  // Rounds of the four builds until `seconds` pass (at least one round;
  // at most `max_rounds` when non-zero).
  BuildSamples rounds(double seconds, int max_rounds) {
    BuildSamples s;
    const double start = now_s();
    for (int round = 0;
         round == 0 || (now_s() - start < seconds &&
                        (max_rounds == 0 || round < max_rounds));
         ++round) {
      const double sum =
          parallel_build(AggregateOp::kSum, *fixture_->ref_sum, s);
      const double seq = sequential_build(pool4_, s);
      const double seq1 = sequential_build(pool1_, s);
      const double max =
          parallel_build(AggregateOp::kMax, *fixture_->ref_max, s);
      if (sum < 0 || seq < 0 || seq1 < 0 || max < 0) continue;
      s.sum_s.push_back(sum);
      s.seq_s.push_back(seq);
      s.seq1_s.push_back(seq1);
      s.max_s.push_back(max);
      s.round_s.push_back(sum + seq + seq1 + max);
    }
    ops_wall_ = now_s() - start;
    return s;
  }

  void report(Metrics& m, const BuildSamples& s) {
    const Dist round = summarize(s.round_s);
    m.add_dist("op_p50_us", round, 1e6, "us");
    m.add("op_tail_us", round.tail * 1e6, "us", "lower");
    m.add("ops_per_s", static_cast<double>(s.round_s.size()) / ops_wall_,
          "1/s", "higher");
    m.add_dist("build_s", summarize(s.sum_s), 1.0, "s");
    m.add_dist("build_seq_s", summarize(s.seq_s), 1.0, "s");
    m.add_dist("build_seq_1t_s", summarize(s.seq1_s), 1.0, "s");
    m.add_dist("build_max_s", summarize(s.max_s), 1.0, "s");
    m.add("io.provide_s", median_of(s.provide_s), "s", "lower");
    if (s.first_sum) {
      const ParallelCubeReport& r = *s.first_sum;
      std::int64_t cells = 0;
      std::int64_t updates = 0;
      std::int64_t scratch = s.first_seq.peak_scratch_bytes;
      for (const cubist::ParallelBuildStats& rank : r.rank_stats) {
        cells += rank.cells_scanned;
        updates += rank.updates;
        scratch = std::max(scratch, rank.peak_scratch_bytes);
      }
      const double build_s = median_of(s.sum_s);
      m.add("array.cells_scanned", static_cast<double>(cells), "count",
            "lower");
      m.add("array.updates", static_cast<double>(updates), "count", "lower");
      m.add("array.cells_per_s", static_cast<double>(cells) / build_s, "1/s",
            "higher");
      m.add("array.peak_scratch_mb", static_cast<double>(scratch) / 1048576.0,
            "MB", "lower");
      const double logical = static_cast<double>(r.construction_bytes);
      const double wire = static_cast<double>(r.construction_wire_bytes);
      m.add("minimpi.logical_mb", logical / 1048576.0, "MB", "lower");
      m.add("minimpi.wire_mb", wire / 1048576.0, "MB", "lower");
      m.add("minimpi.wire_ratio", logical > 0 ? wire / logical : 0.0, "ratio",
            "lower");
      m.add("minimpi.messages",
            static_cast<double>(r.run.volume.total_messages), "count",
            "lower");
      m.add("minimpi.model_over_wall", r.construction_seconds / build_s,
            "ratio", "higher");
      m.add("core.peak_live_mb",
            static_cast<double>(r.max_peak_live_bytes) / 1048576.0, "MB",
            "lower");
    }
  }

  const Args& args_;
  Gate& gate_;
  ThreadPool pool4_;
  ThreadPool pool1_;
  std::unique_ptr<BuildFixture> fixture_;
  std::atomic<std::int64_t> provide_ns_{0};
  double ops_wall_ = 0.0;
};

// ---- serve-zipf / serve-shift ----

const char* const kRouteNames[3] = {"direct", "ancestor", "input"};

struct ServeFixture {
  std::vector<std::int64_t> sizes;
  std::shared_ptr<const SparseArray> input;
  std::unique_ptr<QueryEngine> oracle;
  std::unique_ptr<QueryEngine> engine;
  std::int64_t budget_bytes = 0;
  // One pre-drawn query stream per phase; clients cycle through it.
  std::vector<std::vector<Query>> streams;
  std::vector<Query> coverage;  // one query per (kind, route)
  double gen_s = 0.0;
};

// What one client saw in one run of the client loop.
struct ClientLog {
  std::deque<float> latency_us;
  std::deque<std::uint8_t> kind;
  std::vector<double> replan_overlap_us;  // queries in flight during a replan
  std::vector<std::pair<const Query*, std::shared_ptr<const QueryResult>>>
      samples;
  std::int64_t queries = 0;
  std::vector<double> replan_s, select_s, partial_build_s, ancestor_s;
};

struct ServeRun {
  std::vector<ClientLog> clients;
  double wall_s = 0.0;
  cubist::serving::ServingStats before, after;
};

class ServeWorkload {
 public:
  // serve-shift moves the hot set every phase_s_ seconds: kWarmPhases
  // short untimed phases end its set-up, then the timed phases, then one
  // traced phase, each on its own stream. serve-zipf draws every query
  // from one stream, and its timed window is one phase.
  static constexpr int kWarmPhases = 2;

  ServeWorkload(const Args& args, Gate& gate)
      : args_(args),
        gate_(gate),
        shift_(args.workload == "serve-shift"),
        phase_s_(args.tiny ? 0.25 : 2.0),
        timed_s_(args.trace ? args.seconds / 2 : args.seconds),
        timed_phases_(shift_ ? std::max(1, static_cast<int>(std::lround(
                                             timed_s_ / phase_s_)))
                             : 1) {}

  void run(Metrics& m) {
    fixture_ = repeated_setup<ServeFixture>(m, [&] { return setup(); });
    m.add("io.gen_s", fixture_->gen_s, "s", "lower");

    const int first = shift_ ? kWarmPhases : 0;
    const double phase_s = shift_ ? phase_s_ : timed_s_;
    ServeRun plain = clients(*fixture_, first, timed_phases_, phase_s, 0);
    report(m, plain);
    check_samples(*fixture_, plain);

    if (args_.trace) {
      // One more phase, traced, on a fresh stream; each client stops
      // after `cap` queries so the per-thread buffers never overflow.
      const std::int64_t cap = args_.tiny ? 500 : 10000;
      const std::uint64_t t0 = begin_trace(3 * cap + 4096);
      ServeRun traced = [&] {
        obs::Span parked("bench", "clients");
        return clients(*fixture_, first + timed_phases_, 1, phase_s, cap);
      }();
      const LayerTable table = end_trace(args_, t0);
      add_layer_metrics(m, table);
      check_samples(*fixture_, traced);
      // Tracing overhead on the median query (a cache hit, where the
      // spans cost the most relative to the work).
      auto p50_latency = [](const ServeRun& r) {
        std::vector<double> all;
        for (const ClientLog& c : r.clients) {
          all.insert(all.end(), c.latency_us.begin(), c.latency_us.end());
        }
        return summarize(std::move(all)).p50;
      };
      m.add("obs.trace_overhead_frac",
            p50_latency(traced) / p50_latency(plain) - 1.0, "ratio", "lower");
      std::vector<double> select, partial, ancestor;
      for (const ClientLog& c : traced.clients) {
        select.insert(select.end(), c.select_s.begin(), c.select_s.end());
        partial.insert(partial.end(), c.partial_build_s.begin(),
                       c.partial_build_s.end());
        ancestor.insert(ancestor.end(), c.ancestor_s.begin(),
                        c.ancestor_s.end());
      }
      m.add("core.select_s", median_of(select), "s", "lower");
      m.add("core.partial_build_s", median_of(partial), "s", "lower");
      m.add("lattice.ancestor_table_s", median_of(ancestor), "s", "lower");
    }
  }

 private:
  const std::vector<Query>& stream(const ServeFixture& f, int phase) const {
    return f.streams[shift_ ? static_cast<std::size_t>(phase) : 0];
  }

  // Phase `phase`'s stream. Which descriptors are hot is fixed per phase
  // (the generator's own seed), like a fixed dashboard, so every --seed
  // runs the same query mix; --seed picks the data and the order in which
  // the drawn queries arrive.
  std::vector<Query> draw_stream(int phase, int n) const {
    WorkloadSpec spec;
    spec.skew = WorkloadSpec::Skew::kZipfian;
    spec.zipf_exponent = 1.2;
    spec.seed = static_cast<std::uint64_t>(phase) + 1;
    std::vector<Query> queries =
        WorkloadGenerator(fixture_sizes(), spec).batch(n);
    std::uint64_t state =
        splitmix64(args_.seed) ^ static_cast<std::uint64_t>(phase);
    for (std::size_t i = queries.size(); i > 1; --i) {
      state = splitmix64(state);
      std::swap(queries[i - 1], queries[state % i]);
    }
    return queries;
  }

  std::vector<std::int64_t> fixture_sizes() const {
    return args_.tiny ? std::vector<std::int64_t>{6, 5, 4, 4, 3, 2}
                      : std::vector<std::int64_t>{32, 24, 16, 12, 10, 8};
  }

  static int route_of(const AncestorTable& routes, const Query& q) {
    const std::optional<DimSet> r = routes.route(q.view);
    if (!r) return 2;
    return *r == q.view ? 0 : 1;
  }

  std::unique_ptr<ServeFixture> setup() {
    auto f = std::make_unique<ServeFixture>();
    f->sizes = fixture_sizes();
    SparseSpec spec;
    spec.sizes = f->sizes;
    spec.density = 0.10;
    spec.seed = args_.seed;
    const double t = now_s();
    f->input = std::make_shared<const SparseArray>(
        cubist::generate_sparse_global(spec));
    f->gen_s = now_s() - t;

    const int stream_len = args_.tiny ? 2048 : 1 << 16;
    const int num_streams = shift_ ? kWarmPhases + timed_phases_ + 1 : 1;
    for (int p = 0; p < num_streams; ++p) {
      f->streams.push_back(draw_stream(p, stream_len));
    }

    // The full cube behind the oracle engine (no cache: every answer is
    // computed from the materialized view).
    CubeResult full = cubist::build_cube_sequential(*f->input);
    const CubeLattice lattice(f->sizes);
    std::vector<DimSet> views =
        cubist::select_views_greedy(lattice, args_.tiny ? 4 : 8).views;
    auto start = std::make_shared<const PartialCube>(
        PartialCube::build(f->input, views));
    f->budget_bytes = start->materialized_bytes();
    const AncestorTable routes = AncestorTable::build(lattice, views);

    // Coverage set: one query per (kind, route) over the whole query
    // universe (every descriptor of every proper view), checked in set-up.
    // Every kind, and every route some view takes under the starting set,
    // must be present — the gate is never skipped silently.
    WorkloadSpec all_spec;
    all_spec.seed = args_.seed;
    all_spec.max_universe = 1 << 20;
    const WorkloadGenerator everything(f->sizes, all_spec);
    f->coverage.clear();
    bool seen[cubist::serving::kNumQueryKinds][3] = {};
    for (const Query& q : everything.universe()) {
      bool& slot = seen[static_cast<int>(q.kind)][route_of(routes, q)];
      if (!slot) {
        slot = true;
        f->coverage.push_back(q);
      }
    }
    bool route_exists[3] = {};
    for (std::uint32_t mask = 0; mask + 1 < (1u << f->sizes.size()); ++mask) {
      const std::optional<DimSet> r = routes.route(DimSet::from_mask(mask));
      route_exists[!r ? 2 : (*r == DimSet::from_mask(mask) ? 0 : 1)] = true;
    }
    for (int k = 0; k < cubist::serving::kNumQueryKinds; ++k) {
      bool any = false;
      for (int r = 0; r < 3; ++r) any = any || seen[k][r];
      gate_.check(any, std::string("coverage: no ") +
                           cubist::serving::query_kind_name(
                               static_cast<QueryKind>(k)) +
                           " query in the universe");
    }
    for (int r = 0; r < 3; ++r) {
      bool any = false;
      for (int k = 0; k < cubist::serving::kNumQueryKinds; ++k) {
        any = any || seen[k][r];
      }
      gate_.check(any || !route_exists[r],
                  std::string("coverage: no query routes ") + kRouteNames[r]);
    }
    if (args_.plant_error) {
      // Perturb the oracle cell the first covered point query reads.
      for (const Query& q : f->coverage) {
        if (q.kind == QueryKind::kPoint) {
          full.mutable_view(q.view).at(q.coords) += 1.0;
          break;
        }
      }
    }
    QueryEngineOptions oracle_options;
    oracle_options.pool = &pool1_;
    oracle_options.cache_budget_bytes = 0;
    f->oracle = std::make_unique<QueryEngine>(
        std::make_shared<const CubeResult>(std::move(full)), oracle_options);

    QueryEngineOptions options;
    options.pool = &pool1_;
    options.cache_budget_bytes = std::int64_t{16} << 20;
    f->engine = std::make_unique<QueryEngine>(start, options);

    for (const Query& q : f->coverage) {
      check_answer(*f, q, f->engine->execute(q));
    }
    // Warm-up. serve-zipf starts the cache from its stream; serve-shift
    // runs its short warm-up phases under load, so the timed phases start
    // past the first replans away from the HRU set.
    if (shift_) {
      check_samples(*f, clients(*f, 0, kWarmPhases, phase_s_ / 2, 0));
    } else {
      const int warm = args_.tiny ? 256 : 500;
      for (int i = 0; i < warm; ++i) {
        f->engine->execute(f->streams[0][static_cast<std::size_t>(i) %
                                         f->streams[0].size()]);
      }
    }
    return f;
  }

  void check_answer(const ServeFixture& f, const Query& q,
                    const std::shared_ptr<const QueryResult>& got) {
    gate_.attempt();
    try {
      const std::shared_ptr<const QueryResult> want = f.oracle->execute(q);
      gate_.check(got && same_result(*got, *want),
                  std::string(cubist::serving::query_kind_name(q.kind)) +
                      " answer on view " + std::to_string(q.view.mask()) +
                      " differs from the full-cube oracle");
    } catch (const std::exception& e) {
      gate_.fail(std::string("oracle query threw: ") + e.what());
    }
  }

  void check_samples(const ServeFixture& f, const ServeRun& run) {
    for (const ClientLog& c : run.clients) {
      for (const auto& [q, result] : c.samples) check_answer(f, *q, result);
    }
  }

  // Client 0 replans under the starting set's byte budget. In the traced
  // run it then times the replan's stages from outside on the same inputs.
  void replan(ServeFixture& f, ClientLog& log,
              std::atomic<std::uint64_t>& epoch, bool traced) {
    const std::vector<std::int64_t> freq = f.engine->view_frequencies();
    gate_.attempt();
    epoch.fetch_add(1);
    const double t = now_s();
    QueryEngine::ReplanReport report;
    try {
      obs::Span span("bench", "replan");
      report = f.engine->replan(f.budget_bytes);
    } catch (const std::exception& e) {
      gate_.fail(std::string("replan threw: ") + e.what());
    }
    log.replan_s.push_back(now_s() - t);
    epoch.fetch_add(1);
    if (!traced || report.views.empty()) return;
    const CubeLattice lattice(f.sizes);
    double s = now_s();
    {
      obs::Span span("bench", "select_views_weighted");
      const cubist::ViewSelection sel = cubist::select_views_weighted(
          lattice, f.budget_bytes, freq,
          static_cast<std::int64_t>(sizeof(cubist::Value)));
      gate_.check(!sel.views.empty(), "outside selection chose no views");
    }
    log.select_s.push_back(now_s() - s);
    s = now_s();
    {
      obs::Span span("bench", "partial_cube_build");
      const PartialCube cube = PartialCube::build(f.input, report.views);
      gate_.check(cube.materialized_bytes() == report.materialized_bytes,
                  "outside PartialCube::build differs from the replan's");
    }
    log.partial_build_s.push_back(now_s() - s);
    s = now_s();
    {
      obs::Span span("bench", "ancestor_table_build");
      const AncestorTable table = AncestorTable::build(lattice, report.views);
      gate_.check(table.ndims() == lattice.ndims(), "ancestor table rank");
    }
    log.ancestor_s.push_back(now_s() - s);
  }

  // Runs the four closed-loop clients over phases [first, first+phases),
  // phase_s seconds each; serve-shift asks client 0 to replan mid-phase.
  // `cap` > 0 stops each client after that many queries.
  ServeRun clients(ServeFixture& f, int first, int phases, double phase_s,
                   std::int64_t cap) {
    ServeRun run;
    run.clients.resize(kClients);
    std::atomic<int> phase{first};
    std::atomic<bool> stop{false};
    std::atomic<bool> replan_requested{false};
    std::atomic<std::uint64_t> epoch{0};  // odd while a replan runs
    std::atomic<int> finished{0};         // clients that left their loop
    const bool traced = cap > 0;
    run.before = f.engine->stats();
    auto client = [&](int c) {
      obs::set_thread_identity("client-" + std::to_string(c),
                               obs::kTidClientBase + c);
      pin_to_cpu(c);
      ClientLog& log = run.clients[static_cast<std::size_t>(c)];
      obs::Span lane("bench", "client");
      std::size_t next = static_cast<std::size_t>(c);
      while (!stop.load(std::memory_order_relaxed)) {
        if (c == 0 && replan_requested.exchange(false)) {
          replan(f, log, epoch, traced);
        }
        if (cap > 0 && log.queries >= cap) {
          // Client 0 of serve-shift keeps waiting for its replan.
          if (c != 0 || !shift_ || !log.replan_s.empty()) break;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const std::vector<Query>& queries = stream(f, phase.load());
        const Query& q = queries[next % queries.size()];
        next += kClients;
        const std::uint64_t e0 = epoch.load();
        std::shared_ptr<const QueryResult> result;
        const double t = now_s();
        try {
          obs::Span span("bench", "execute");
          result = f.engine->execute(q);
        } catch (const std::exception& e) {
          gate_.fail(std::string("query threw: ") + e.what());
        }
        const double us = (now_s() - t) * 1e6;
        const std::uint64_t e1 = epoch.load();
        log.latency_us.push_back(static_cast<float>(us));
        log.kind.push_back(static_cast<std::uint8_t>(q.kind));
        if (e0 != e1 || (e0 & 1) != 0) log.replan_overlap_us.push_back(us);
        // Seeded sample of answers for the oracle check.
        if (result && log.samples.size() < 2048 &&
            splitmix64(args_.seed ^ (static_cast<std::uint64_t>(c) << 48) ^
                       static_cast<std::uint64_t>(log.queries)) %
                    512 ==
                0) {
          log.samples.emplace_back(&q, std::move(result));
        }
        log.queries += 1;
      }
      finished.fetch_add(1);
    };
    const double start = now_s();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    // Waits until `at`, or until every client has stopped at its cap.
    auto sleep_until = [&](double at) {
      while (now_s() < at && finished.load() < kClients) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    };
    for (int p = 0; p < phases; ++p) {
      phase.store(first + p);
      if (shift_) {
        sleep_until(start + (p + 0.5) * phase_s);
        replan_requested.store(true);
      }
      sleep_until(start + (p + 1) * phase_s);
    }
    run.wall_s = now_s() - start;
    stop.store(true);
    for (std::thread& t : threads) t.join();
    run.after = f.engine->stats();
    std::int64_t total = 0;
    for (const ClientLog& c : run.clients) total += c.queries;
    gate_.attempt(total);
    return run;
  }

  void report(Metrics& m, const ServeRun& run) {
    std::vector<double> all;
    std::vector<double> by_kind[cubist::serving::kNumQueryKinds];
    std::vector<double> overlap, replans;
    std::int64_t queries = 0;
    for (const ClientLog& c : run.clients) {
      queries += c.queries;
      for (std::size_t i = 0; i < c.latency_us.size(); ++i) {
        all.push_back(c.latency_us[i]);
        by_kind[c.kind[i]].push_back(c.latency_us[i]);
      }
      overlap.insert(overlap.end(), c.replan_overlap_us.begin(),
                     c.replan_overlap_us.end());
      replans.insert(replans.end(), c.replan_s.begin(), c.replan_s.end());
    }
    const Dist q = summarize(std::move(all));
    const double qps = static_cast<double>(queries) / run.wall_s;
    m.add_dist("op_p50_us", q, 1.0, "us");
    m.add("op_tail_us", q.tail, "us", "lower");
    m.add("ops_per_s", qps, "1/s", "higher");
    m.add("qps", qps, "1/s", "higher");
    m.add_dist("query_p50_us", q, 1.0, "us");
    m.add("query_p99_us", q.tail, "us", "lower");
    if (shift_) {
      m.add_dist("replan_s", summarize(replans), 1.0, "s");
      const Dist o = summarize(std::move(overlap));
      m.add("replan_query_p99_us", o.tail, "us", "lower");
    }
    for (int k = 0; k < cubist::serving::kNumQueryKinds; ++k) {
      const std::string name = std::string("serving.") +
                               cubist::serving::query_kind_name(
                                   static_cast<QueryKind>(k));
      const Dist d = summarize(std::move(by_kind[k]));
      m.add_dist(name + "_p50_us", d, 1.0, "us");
      m.add(name + "_p99_us", d.tail, "us", "lower");
    }
    const auto& a = run.after;
    const auto& b = run.before;
    const double lookups = static_cast<double>(
        (a.cache.hits - b.cache.hits) + (a.cache.misses - b.cache.misses));
    const double served = static_cast<double>(a.queries - b.queries);
    m.add("serving.cache_hit_rate",
          lookups > 0
              ? static_cast<double>(a.cache.hits - b.cache.hits) / lookups
              : 0.0,
          "ratio", "higher");
    m.add("serving.cache_evictions",
          static_cast<double>(a.cache.evictions - b.cache.evictions), "count",
          "lower");
    auto frac = [&](std::int64_t after, std::int64_t before) {
      return served > 0 ? static_cast<double>(after - before) / served : 0.0;
    };
    m.add("serving.route_direct_frac", frac(a.routed_direct, b.routed_direct),
          "ratio", "higher");
    m.add("serving.route_ancestor_frac",
          frac(a.routed_ancestor, b.routed_ancestor), "ratio", "lower");
    m.add("serving.route_input_frac", frac(a.routed_input, b.routed_input),
          "ratio", "lower");
    m.add("serving.cells_per_query", frac(a.cells_scanned, b.cells_scanned),
          "count", "lower");
  }

  const Args& args_;
  Gate& gate_;
  const bool shift_;
  const double phase_s_;
  const double timed_s_;
  const int timed_phases_;
  ThreadPool pool1_{1};
  std::unique_ptr<ServeFixture> fixture_;
};

// ----------------------------------------------------------------- output --

// Every metric this benchmark defines, so a workload that does not
// exercise a layer still reports it (as 0) and the output keys are the
// same for every workload.
void add_idle_defaults(Metrics& m, bool trace) {
  const char* lower_s[] = {"build_s", "build_seq_s", "build_seq_1t_s",
                           "build_max_s", "io.provide_s", "replan_s"};
  for (const char* name : lower_s) m.add_idle(name, "s", "lower");
  m.add_idle("qps", "1/s", "higher");
  for (const char* name :
       {"query_p50_us", "query_p99_us", "replan_query_p99_us"}) {
    m.add_idle(name, "us", "lower");
  }
  for (const char* name : {"array.cells_scanned", "array.updates",
                           "minimpi.messages", "serving.cache_evictions",
                           "serving.cells_per_query"}) {
    m.add_idle(name, "count", "lower");
  }
  m.add_idle("array.cells_per_s", "1/s", "higher");
  for (const char* name : {"array.peak_scratch_mb", "minimpi.logical_mb",
                           "minimpi.wire_mb", "core.peak_live_mb"}) {
    m.add_idle(name, "MB", "lower");
  }
  m.add_idle("minimpi.wire_ratio", "ratio", "lower");
  m.add_idle("minimpi.model_over_wall", "ratio", "higher");
  m.add_idle("serving.cache_hit_rate", "ratio", "higher");
  m.add_idle("serving.route_direct_frac", "ratio", "higher");
  m.add_idle("serving.route_ancestor_frac", "ratio", "lower");
  m.add_idle("serving.route_input_frac", "ratio", "lower");
  for (int k = 0; k < cubist::serving::kNumQueryKinds; ++k) {
    const std::string name =
        std::string("serving.") +
        cubist::serving::query_kind_name(static_cast<QueryKind>(k));
    m.add_idle(name + "_p50_us", "us", "lower");
    m.add_idle(name + "_p99_us", "us", "lower");
  }
  if (trace) {
    for (const char* name :
         {"array.scan_s", "minimpi.reduce_s", "minimpi.rank_wait_s",
          "core.gather_s", "core.select_s", "core.partial_build_s",
          "lattice.ancestor_table_s"}) {
      m.add_idle(name, "s", "lower");
    }
  }
}

void print_table(const Metrics& m) {
  std::printf("%-30s %16s %-6s %8s %16s\n", "metric", "value", "unit", "n",
              "tail");
  for (const Metric& x : m.all()) {
    char tail[48] = "";
    if (x.n > 0) {
      std::snprintf(tail, sizeof(tail), "%.6g @p%.4g", x.tail, x.tail_pct);
    }
    std::printf("%-30s %16.6g %-6s %8lld %16s\n", x.name.c_str(), x.value,
                x.unit.c_str(), static_cast<long long>(x.n), tail);
  }
}

std::string result_json(const Args& args, const Gate& gate, const Metrics& m) {
  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"correct\": " << (gate.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << gate.attempted()
      << ", \"failed\": " << gate.failed() << ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : m.all()) {
    out << (first ? "" : ", ") << '"' << x.name << "\": {\"value\": "
        << json_number(x.value) << ", \"unit\": \"" << x.unit
        << "\", \"better\": \"" << x.better << '"';
    if (x.n > 0) {
      out << ", \"n\": " << x.n << ", \"tail\": " << json_number(x.tail)
          << ", \"tail_pct\": " << json_number(x.tail_pct);
    }
    out << '}';
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The library's process-wide pool backs every call that is not handed
  // an explicit pool (a replan's PartialCube build). One thread keeps a
  // replan on its client's thread, so the process never has more than the
  // four client or rank threads busy. Set before the pool is first used.
  setenv("CUBIST_THREADS", "1", 1);
  obs::Tracer::instance().set_enabled(false);
  obs::set_thread_identity("main", obs::kTidMain);

  Gate gate;
  Metrics metrics;
  try {
    if (args.workload == "build") {
      BuildWorkload(args, gate).run(metrics);
    } else {
      ServeWorkload(args, gate).run(metrics);
    }
  } catch (const std::exception& e) {
    gate.attempt();
    gate.fail(std::string("workload aborted: ") + e.what());
  }
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB", "lower");
  metrics.add("error_rate",
              gate.attempted() > 0
                  ? static_cast<double>(gate.failed()) /
                        static_cast<double>(gate.attempted())
                  : 1.0,
              "ratio", "lower");
  add_idle_defaults(metrics, args.trace);
  print_table(metrics);
  std::cout << result_json(args, gate, metrics) << std::endl;
  return gate.failed() == 0 ? 0 : 1;
}
