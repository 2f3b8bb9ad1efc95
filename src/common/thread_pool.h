// Fixed-size thread pool with a blocking task queue. Used by the
// batch/parallel query paths (ParallelQueryBatch, which tracks its own
// chunks' completion) and the similarity join; the single-query SimPush
// path stays strictly single-threaded (matching the paper's
// measurements).

#ifndef SIMPUSH_COMMON_THREAD_POOL_H_
#define SIMPUSH_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace simpush {

/// Fixed-size pool of worker threads consuming a FIFO task queue.
///
/// Tasks are `std::function<void()>`; exceptions must not escape a task
/// (the library is exception-free at its API boundary, so tasks report
/// failures through captured state instead).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1; 0 is clamped to the hardware
  /// concurrency, or 1 when that is unknown).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins all workers: the one way to
  /// wait for everything submitted to a scoped pool.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar task_ready_;
  std::queue<std::function<void()>> tasks_ SIMPUSH_GUARDED_BY(mu_);
  bool shutting_down_ SIMPUSH_GUARDED_BY(mu_) = false;
  // Written once by the constructor before any concurrent access;
  // num_threads() reads it lock-free thereafter.
  std::vector<std::thread> workers_;
};

}  // namespace simpush

#endif  // SIMPUSH_COMMON_THREAD_POOL_H_
