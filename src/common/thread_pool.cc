#include "common/thread_pool.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace anatomy {

namespace {

// RunPendingThenWait()'s spin budget: well above a sub-millisecond task.
constexpr std::chrono::microseconds kWaitSpin{2000};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock,
                       [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ANATOMY_CHECK_MSG(!shutting_down_, "Submit() on a destructed ThreadPool");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::RunPendingThenWait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!queue_.empty()) {
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
    if (--in_flight_ == 0) all_done_.notify_all();
  }
  // What is left is running on the workers.
  const auto spin_end = std::chrono::steady_clock::now() + kWaitSpin;
  while (in_flight_ > 0 && std::chrono::steady_clock::now() < spin_end) {
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
  }
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(
    size_t n,
    const std::function<void(size_t shard, size_t begin, size_t end)>& fn) {
  const size_t shards = num_threads();
  for (size_t shard = 0; shard < shards; ++shard) {
    const size_t begin = n * shard / shards;
    const size_t end = n * (shard + 1) / shards;
    Submit([&fn, shard, begin, end] { fn(shard, begin, end); });
  }
  Wait();
}

}  // namespace anatomy
