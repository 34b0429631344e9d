#include "sim/parallel.hpp"

#include <algorithm>

namespace nomc::sim {

int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ParallelRunner::ParallelRunner(int jobs) : jobs_{resolve_jobs(jobs)} {
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 0; i < jobs_ - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelRunner::~ParallelRunner() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  batch_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelRunner::drain_batch(std::uint64_t my_batch, const std::function<void(int)>& task) {
  for (;;) {
    int index;
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      // The batch guard closes a race: a worker that just finished the last
      // index of batch N may loop around after the caller has already opened
      // batch N+1, and must not claim N+1's indices through N's (now dead)
      // task reference.
      if (batch_ != my_batch || next_index_ >= total_) return;
      index = next_index_++;
    }
    std::exception_ptr error;
    try {
      task(index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      if (error && !error_) error_ = error;
      // The caller cannot have moved past this batch yet: it waits for
      // remaining_ == 0, and this claimed index has not been counted.
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

void ParallelRunner::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* task = nullptr;
    std::uint64_t my_batch = 0;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      batch_cv_.wait(lock, [&] { return stop_ || batch_ != seen; });
      if (stop_) return;
      seen = batch_;
      my_batch = batch_;
      task = task_;
    }
    // task_ is nulled once a batch completes; a worker that slept through
    // the whole batch has nothing to do.
    if (task != nullptr) drain_batch(my_batch, *task);
  }
}

void ParallelRunner::run_batch(int count, const std::function<void(int)>& task) {
  if (count <= 0) return;
  if (workers_.empty() || count == 1) {
    // Serial path: no synchronization, runs on the calling thread.
    for (int i = 0; i < count; ++i) task(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    task_ = &task;
    total_ = count;
    next_index_ = 0;
    remaining_ = count;
    error_ = nullptr;
    ++batch_;
  }
  batch_cv_.notify_all();
  drain_batch(batch_, task);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock{mutex_};
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    task_ = nullptr;
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace nomc::sim
