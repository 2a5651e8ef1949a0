// Fixed-size worker pool for the staged exploration engine.
//
// Design notes (read together with vinoc/exec/parallel_for.hpp):
//
//  * A pool models a fixed amount of PARALLELISM, not a fixed number of
//    spawned threads: `ThreadPool(p)` spawns `p - 1` workers, because in
//    every fan-out primitive the CALLING thread participates as the final
//    strand. `ThreadPool(1)` therefore spawns no threads at all and every
//    parallel_for_each over it runs inline, byte-for-byte identical to a
//    plain sequential loop.
//  * Workers never block on other pool work. The fan-out primitives hand
//    workers self-contained "runner" jobs that pull indices from a shared
//    atomic counter and exit as soon as the range is drained; the caller
//    drains the same counter itself. Progress is therefore guaranteed even
//    when every worker is busy with unrelated jobs, which makes NESTED
//    fan-outs safe: the campaign engine fans job groups out over the pool
//    and each group's synthesize_width_set() fans its partition problems
//    and delta-group units out over the same pool without risk of
//    deadlock (the inner fan-out simply degrades to the calling strand when
//    no worker is free).
//  * Jobs must not throw; parallel_for_each catches per-task exceptions
//    itself and rethrows deterministically (lowest task index wins).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vinoc::exec {

/// Maps a user-facing thread-count request to an effective parallelism:
/// 0 = hardware concurrency (at least 1), negative values clamp to 1.
[[nodiscard]] int resolve_thread_count(int requested);

class ThreadPool {
 public:
  /// `parallelism` follows resolve_thread_count(): 0 = hardware concurrency.
  explicit ThreadPool(int parallelism = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Effective parallelism (worker threads + the participating caller).
  [[nodiscard]] int parallelism() const { return parallelism_; }

  /// Enqueues a job. Thread-safe; callable from worker threads (used by
  /// nested fan-outs). Jobs must not throw.
  void submit(std::function<void()> job);

  /// Enqueues a job at the FRONT of the queue — the fairness hint for nested
  /// fan-outs. An inner fan-out issued from a worker queues its runners
  /// ahead of not-yet-started outer jobs, so work already in flight drains
  /// before new top-level jobs begin. This keeps an index-ordered streaming
  /// consumer (e.g. the campaign engine's job-order reporter) flowing
  /// instead of stalling behind a queue full of unstarted outer jobs.
  /// Thread-safe; jobs must not throw.
  void submit_front(std::function<void()> job);

  /// True when the calling thread is a worker of ANY ThreadPool. The fan-out
  /// primitives use it to detect nesting (and then prefer submit_front);
  /// plain callers may use it to tell caller strands from pool strands.
  [[nodiscard]] static bool on_worker_thread();

  /// First exception a submitted job leaked, if any. Jobs must not throw —
  /// the fan-out primitives catch per-task exceptions themselves — so this
  /// is the safety net that turns a leaked exception into a recorded error
  /// instead of std::terminate tearing the process down. Check it after the
  /// work that could have leaked (e.g. before trusting a batch's results).
  [[nodiscard]] std::exception_ptr worker_error() const;

 private:
  void enqueue(std::function<void()> job, bool front);
  void run_guarded(std::function<void()>& job);
  void worker_loop();

  int parallelism_ = 1;
  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::exception_ptr worker_error_;
};

}  // namespace vinoc::exec
