// A small fixed-size worker pool for embarrassingly parallel bench work.
//
// The scenario runner forks an independent Rng per seed, so seeds can run on
// any worker in any order; determinism is recovered by merging results in
// seed order afterwards. The pool is deliberately minimal: submit closures,
// wait for drain, join on destruction. parallel_for is the common entry
// point — it hands out indices through an atomic counter so workers
// self-balance across uneven seed costs.
//
// Thread safety: submit() may be called from any thread, including from
// inside a running job; wait_idle() belongs to one coordinating thread at
// a time. default_threads() is hardware concurrency — the bench harness
// layers the REM_BENCH_THREADS override on top (testkit::bench_threads(),
// knob table in OBSERVABILITY.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rem::common {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 means default_threads()).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job. Jobs must not throw (wrap exceptions yourself —
  /// parallel_for does).
  void submit(std::function<void()> job);

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  std::size_t num_threads() const { return workers_.size(); }

  /// Hardware concurrency, clamped to at least 1.
  static std::size_t default_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< signals workers: job or stop
  std::condition_variable idle_cv_;   ///< signals waiters: drained
  std::size_t active_ = 0;            ///< jobs currently executing
  bool stop_ = false;
};

/// Run fn(0), ..., fn(n-1) across up to `num_threads` workers and return
/// when all calls finished. Indices are claimed dynamically so uneven work
/// self-balances. num_threads <= 1 (or n <= 1) degrades to a plain serial
/// loop on the calling thread. The first exception thrown by any fn is
/// rethrown here after all indices complete.
void parallel_for(std::size_t n, std::size_t num_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace rem::common
