#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/error.h"

namespace cubist {

namespace {

/// Simulated ranks currently sharing the global pool (minimpi Runtime).
std::atomic<int> g_active_ranks{1};

/// Identity hook run at the top of each worker thread (obs tracer).
std::atomic<ThreadPool::WorkerThreadHook> g_worker_hook{nullptr};

}  // namespace

void ThreadPool::set_worker_thread_hook(WorkerThreadHook hook) {
  g_worker_hook.store(hook, std::memory_order_release);
}

/// One parallel_for invocation: a range claimed in grain-sized chunks via
/// an atomic cursor, a completion count, and the first captured error.
struct ThreadPool::Job {
  std::int64_t end = 0;
  std::int64_t grain = 1;
  const Body* body = nullptr;  // outlives the job: the caller blocks in wait()
  std::atomic<std::int64_t> cursor{0};
  std::int64_t total_chunks = 0;

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::int64_t finished_chunks = 0;
  std::exception_ptr error;

  bool exhausted() const {
    return cursor.load(std::memory_order_relaxed) >= end;
  }

  void wait() {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] { return finished_chunks == total_chunks; });
  }
};

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads == 0) num_threads = configured_threads();
  CUBIST_CHECK(num_threads >= 1, "thread pool needs at least one thread, got "
                                     << num_threads);
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this, i] {
      if (const WorkerThreadHook hook =
              g_worker_hook.load(std::memory_order_acquire)) {
        hook(i);
      }
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::run_chunks(Job& job) {
  std::int64_t done = 0;
  std::exception_ptr first_error;
  for (;;) {
    const std::int64_t lo =
        job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
    if (lo >= job.end) break;
    const std::int64_t hi = std::min(job.end, lo + job.grain);
    try {
      (*job.body)(lo, hi);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    ++done;
  }
  if (done == 0 && !first_error) return;
  std::lock_guard lock(job.done_mutex);
  if (first_error && !job.error) job.error = first_error;
  job.finished_chunks += done;
  if (job.finished_chunks == job.total_chunks) job.done_cv.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
      if (stopping_ && jobs_.empty()) return;
      job = jobs_.front();
      if (job->exhausted()) {
        // All chunks claimed (still possibly running elsewhere); retire
        // the job from the queue and look for the next one.
        jobs_.pop_front();
        continue;
      }
    }
    run_chunks(*job);
  }
}

int ThreadPool::budget(int max_workers) const {
  int workers = std::max(1, size() / active_ranks());
  if (max_workers > 0) workers = std::min(workers, max_workers);
  return workers;
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end,
                              std::int64_t grain, const Body& body,
                              int max_workers) {
  CUBIST_CHECK(grain >= 1, "parallel_for grain must be >= 1, got " << grain);
  CUBIST_CHECK(body != nullptr, "null parallel_for body");
  if (begin >= end) return;

  const int workers = budget(max_workers);
  const std::int64_t span = end - begin;
  if (workers_.empty() || workers <= 1 || span <= grain) {
    body(begin, end);
    return;
  }

  auto job = std::make_shared<Job>();
  job->end = end;
  job->grain = grain;
  job->body = &body;
  job->cursor.store(begin, std::memory_order_relaxed);
  job->total_chunks = (span + grain - 1) / grain;
  {
    std::lock_guard lock(mutex_);
    jobs_.push_back(job);
  }
  // Wake at most workers - 1 helpers; the caller is the last worker.
  // Extra wake-ups are harmless (workers re-park when the queue is dry).
  for (int i = 0; i < workers - 1; ++i) wake_.notify_one();
  run_chunks(*job);
  job->wait();
  {
    // Retire the job eagerly so parked workers never pick up a drained
    // queue head. (worker_loop also tolerates exhausted heads.)
    std::lock_guard lock(mutex_);
    if (!jobs_.empty() && jobs_.front() == job) jobs_.pop_front();
  }
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_threads());
  return pool;
}

int ThreadPool::configured_threads() {
  // getenv without setenv anywhere in the process is data-race-free; the
  // only caller that matters is global()'s magic static, which the
  // language serializes.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const int from_env = parse_threads(std::getenv("CUBIST_THREADS"));
  if (from_env > 0) return from_env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ThreadPool::parse_threads(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* tail = nullptr;
  const long value = std::strtol(text, &tail, 10);
  if (tail == text || *tail != '\0') return 0;
  if (value < 1 || value > 4096) return 0;
  return static_cast<int>(value);
}

int ThreadPool::active_ranks() {
  return std::max(1, g_active_ranks.load(std::memory_order_relaxed));
}

ThreadPool::ScopedActiveRanks::ScopedActiveRanks(int ranks) : ranks_(ranks) {
  CUBIST_CHECK(ranks >= 1, "active rank count must be >= 1, got " << ranks);
  // The baseline of 1 is the registering thread itself; additional ranks
  // stack on top of it (nested runtimes sum).
  g_active_ranks.fetch_add(ranks_ - 1, std::memory_order_relaxed);
}

ThreadPool::ScopedActiveRanks::~ScopedActiveRanks() {
  g_active_ranks.fetch_sub(ranks_ - 1, std::memory_order_relaxed);
}

}  // namespace cubist
