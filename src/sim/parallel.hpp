// Parallel trial runner: a small thread pool for embarrassingly parallel
// replication (independent Scenario runs under different seeds).
//
// Determinism contract: map(count, fn) hands each index 0..count-1 to fn
// exactly once (any thread, any order) and returns the results **in index
// order**. Reductions over the returned vector therefore see the same
// operand order regardless of the job count, so a trial average computed
// with jobs=8 is bit-identical to jobs=1 — provided fn(i) itself depends
// only on i (per-trial seeds, no shared mutable state). Every Scenario owns
// its scheduler, medium, and random streams, so one-scenario-per-index
// satisfies that automatically.
//
// The pool owns jobs-1 worker threads; the calling thread participates in
// every batch, so ParallelRunner{1} never spawns a thread and adds no
// synchronization to the serial path.
//
// Indices are claimed in increasing order, by whichever thread is free. The
// campaign engine relies on it: it runs every (point, trial) pair of a
// campaign as one flat batch, and a task is only claimed once all earlier
// ones are, so the point the store waits on is always in flight.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace nomc::sim {

/// Resolve a --jobs request: n >= 1 is taken literally; 0 (or negative)
/// means "all hardware threads".
[[nodiscard]] int resolve_jobs(int requested);

class ParallelRunner {
 public:
  /// `jobs` as in resolve_jobs(); the pool spawns resolve_jobs(jobs)-1
  /// workers (the calling thread is the remaining one).
  explicit ParallelRunner(int jobs = 0);
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Run fn(0), ..., fn(count-1) across the pool and return the results in
  /// index order. R must be default-constructible and movable. Exceptions
  /// from fn are rethrown on the calling thread (first one wins); the batch
  /// still drains before map returns.
  template <typename Fn>
  auto map(int count, Fn&& fn) -> std::vector<std::invoke_result_t<Fn&, int>> {
    using R = std::invoke_result_t<Fn&, int>;
    std::vector<R> results(count > 0 ? static_cast<std::size_t>(count) : 0);
    run_batch(count, [&](int i) { results[static_cast<std::size_t>(i)] = fn(i); });
    return results;
  }

  /// map() without results, for side-effecting tasks.
  template <typename Fn>
  void for_each(int count, Fn&& fn) {
    run_batch(count, [&](int i) { fn(i); });
  }

 private:
  void run_batch(int count, const std::function<void(int)>& task);
  void worker_loop();
  /// Pull indices from the shared counter and run them; returns when batch
  /// `my_batch` has no indices left for this thread (or has been superseded).
  void drain_batch(std::uint64_t my_batch, const std::function<void(int)>& task);

  int jobs_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable batch_cv_;  // workers wait here for a new batch
  std::condition_variable done_cv_;   // the caller waits here for completion
  const std::function<void(int)>* task_ = nullptr;  // valid while a batch runs
  std::uint64_t batch_ = 0;  // bumped per run_batch; wakes the workers
  int total_ = 0;            // indices in the current batch
  int next_index_ = 0;       // next unclaimed index
  int remaining_ = 0;        // indices not yet finished
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace nomc::sim
