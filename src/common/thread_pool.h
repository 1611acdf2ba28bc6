// Fixed-size worker pool with a chunked parallel_for.
//
// The intra-rank parallel engine behind the aggregation kernels (see
// docs/PERFORMANCE.md). One process-wide pool is shared by everything:
// workers are started once and parked on a condition variable; a
// parallel_for call publishes a Job (a [begin, end) range claimed in
// `grain`-sized chunks through an atomic cursor), participates in it from
// the calling thread, and returns when every chunk has finished. The
// first exception thrown by any chunk is captured and rethrown on the
// calling thread after the job drains.
//
// Sizing: CUBIST_THREADS overrides std::thread::hardware_concurrency().
// Under the minimpi runtime, p simulated ranks share the one pool;
// Runtime::run registers the rank count (ScopedActiveRanks) and each
// rank's parallel_for budget becomes pool_size / active_ranks, so p ranks
// never oversubscribe the machine. A budget of 1 runs the body inline on
// the caller with zero synchronization.
//
// Determinism contract: parallel_for says nothing about WHICH thread runs
// a chunk, only that each chunk runs exactly once. Numeric determinism
// across thread counts is the kernels' job — they key every accumulation
// on the chunk index, never on the executing thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cubist {

class ThreadPool {
 public:
  /// Chunk body: processes the half-open range [lo, hi).
  using Body = std::function<void(std::int64_t lo, std::int64_t hi)>;

  /// `num_threads` total compute threads (callers participate, so the
  /// pool spawns num_threads - 1 workers). 0 = configured_threads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total compute threads (spawned workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `body` over [begin, end) in chunks of at most `grain`. Every
  /// chunk runs exactly once; the call returns after all chunks finish.
  /// The first exception thrown by any chunk is rethrown here. The
  /// per-call concurrency is capped at `max_workers` (0 = no cap) and at
  /// size() / active_ranks(); a cap of 1 runs inline on the caller.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const Body& body, int max_workers = 0);

  /// Concurrency one parallel_for call gets: size() / active_ranks(),
  /// capped at `max_workers` (0 = no cap); at least 1.
  int budget(int max_workers = 0) const;

  /// The process-wide pool (lazily constructed; honors CUBIST_THREADS).
  static ThreadPool& global();

  /// Pool size the environment asks for: CUBIST_THREADS if set and valid,
  /// else hardware_concurrency (at least 1).
  static int configured_threads();

  /// Parses a CUBIST_THREADS-style override; returns 0 when the value is
  /// unset/invalid (caller falls back to hardware_concurrency).
  static int parse_threads(const char* text);

  /// Number of simulated ranks currently sharing the pool (>= 1).
  static int active_ranks();

  /// Called once on each worker thread spawned AFTER installation, with
  /// the worker's index within its pool. Lets higher layers assign the
  /// worker a stable identity (the obs tracer names its timeline track)
  /// without this header depending on them. Pass nullptr to uninstall.
  using WorkerThreadHook = void (*)(int worker_index);
  static void set_worker_thread_hook(WorkerThreadHook hook);

  /// RAII registration of `ranks` concurrent pool clients, so per-rank
  /// parallel_for budgets become size() / ranks. Used by the minimpi
  /// Runtime around its SPMD thread group; nests by summing.
  class ScopedActiveRanks {
   public:
    explicit ScopedActiveRanks(int ranks);
    ~ScopedActiveRanks();
    ScopedActiveRanks(const ScopedActiveRanks&) = delete;
    ScopedActiveRanks& operator=(const ScopedActiveRanks&) = delete;

   private:
    int ranks_;
  };

 private:
  struct Job;

  void worker_loop();
  /// Claims and runs chunks of `job` until none remain.
  static void run_chunks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stopping_ = false;
};

}  // namespace cubist
