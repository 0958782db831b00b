#include "util/thread_pool.h"

namespace procon::util {

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t total = threads;
  if (total == 0) {
    total = std::thread::hardware_concurrency();
    if (total == 0) total = 1;
  }
  threads_.reserve(total - 1);
  for (std::size_t w = 1; w < total; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop requested and every posted task drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();  // tasks must not throw; an escaping exception terminates
  }
}

void ThreadPool::post(std::function<void()> task) {
  if (threads_.empty()) {
    // No background execution available: run inline so posted work always
    // completes. Callers (the service) treat this as a synchronous submit.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

}  // namespace procon::util
