// A fixed-size worker pool for sharded, deterministic parallelism.
//
// The pool is deliberately minimal: workers pull std::function tasks from a
// mutex-guarded queue, and ParallelFor() statically splits an index range
// into exactly num_threads() contiguous shards (shard i always covers the
// same indices for a given n, regardless of scheduling). Components that
// need reproducible results key their per-shard state (scratch arenas, RNG
// streams) off the shard id, never off wall-clock or OS thread identity.

#ifndef ANATOMY_COMMON_THREAD_POOL_H_
#define ANATOMY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anatomy {

class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1). The pool never resizes after construction.
  explicit ThreadPool(size_t num_threads = 0);
  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Enqueues a task for any idle worker.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished.
  void Wait();

  /// Wait(), but the calling thread first runs every queued task that no
  /// worker has started, so a worker that is slow to wake never holds the
  /// caller back. It then waits only on tasks already running, yielding in
  /// a loop for up to 2 ms before it blocks: a thread that blocks can idle
  /// its CPU, and an idle CPU of a shared host can take milliseconds to
  /// wake. Tasks must tolerate running on the calling thread.
  void RunPendingThenWait();

  /// Splits [0, n) into num_threads() contiguous shards and runs
  /// fn(shard, begin, end) for each on the pool, blocking until all shards
  /// complete. Shard boundaries depend only on (n, num_threads()), so a
  /// caller that keys per-shard state off `shard` gets identical results
  /// for any pool size when it also pins num_threads explicitly. Shards may
  /// be empty when n < num_threads().
  void ParallelFor(
      size_t n,
      const std::function<void(size_t shard, size_t begin, size_t end)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // queued + currently executing tasks
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace anatomy

#endif  // ANATOMY_COMMON_THREAD_POOL_H_
