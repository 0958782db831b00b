// Small persistent work queue: the execution substrate of
// api::AnalysisService tickets.
//
// post() enqueues a detached task; background workers run tasks in FIFO
// order, concurrently across workers. A pool of size 1 owns no background
// thread and runs each task inline, before post() returns. The destructor
// drains every posted task before joining the workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace procon::util {

class ThreadPool {
 public:
  /// `threads` = total worker count including the caller; 0 picks
  /// std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers (background threads + the calling thread).
  [[nodiscard]] std::size_t size() const noexcept { return threads_.size() + 1; }

  /// Enqueues a detached task for a background worker (FIFO order across
  /// posts, concurrent execution across workers). Returns immediately; with
  /// no background workers (size() == 1) the task runs inline before
  /// returning, so posted work always completes without anyone draining a
  /// queue. Tasks must not throw (an escaping exception terminates the
  /// process) and must not block on work that only this pool's workers can
  /// perform.
  void post(std::function<void()> task);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;  // background workers
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::deque<std::function<void()>> tasks_;  // posted work, FIFO
};

}  // namespace procon::util
