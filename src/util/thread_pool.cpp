#include "util/thread_pool.h"

namespace procon::util {

namespace {

/// Which pool (if any) the current thread is running a loop body for, and
/// as which worker — the nested-call detector for for_each_index.
struct PoolContext {
  const ThreadPool* pool = nullptr;
  std::size_t worker = 0;
};
thread_local PoolContext tls_pool_context;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t total = threads;
  if (total == 0) {
    total = std::thread::hardware_concurrency();
    if (total == 0) total = 1;
  }
  workers_ = total - 1;
  threads_.reserve(workers_);
  for (std::size_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w + 1); });
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

void ThreadPool::run_items(const std::function<void(std::size_t, std::size_t)>& body,
                           std::size_t count, std::size_t worker) {
  const PoolContext enclosing = tls_pool_context;
  tls_pool_context = PoolContext{this, worker};
  for (;;) {
    const std::size_t item = next_.fetch_add(1, std::memory_order_relaxed);
    if (item >= count) break;
    try {
      body(item, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
  tls_pool_context = enclosing;
}

void ThreadPool::run_task(std::function<void()>& task, std::size_t worker) {
  // Tasks run under a pool context like loop bodies do, so a task that
  // calls for_each_index on this pool degrades to the inline serial loop
  // instead of deadlocking the generation handshake (this worker could
  // never join the generation it would be waiting on).
  const PoolContext enclosing = tls_pool_context;
  tls_pool_context = PoolContext{this, worker};
  task();  // tasks must not throw; an escaping exception terminates
  tls_pool_context = enclosing;
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t, std::size_t)>* job = nullptr;
    std::size_t count = 0;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock,
                 [&] { return stop_ || generation_ != seen || !tasks_.empty(); });
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (generation_ != seen) {
        seen = generation_;
        job = job_;
        count = job_count_;
      } else {
        return;  // stop requested and every posted task drained
      }
    }
    if (task) {
      run_task(task, worker);
      continue;
    }
    run_items(*job, count, worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++finished_;
    }
    done_.notify_one();
  }
}

void ThreadPool::post(std::function<void()> task) {
  if (workers_ == 0) {
    // No background execution available: run inline so posted work always
    // completes. Callers (the service) treat this as a synchronous submit.
    run_task(task, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::for_each_index(
    std::size_t count, const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (tls_pool_context.pool == this) {
    // Nested call from one of our own bodies: inline serial loop on the
    // enclosing worker (fanning out would deadlock the generation
    // handshake; reusing the worker index keeps worker-indexed scratch
    // race-free). Exceptions propagate to the outer run_items catch.
    for (std::size_t item = 0; item < count; ++item) {
      body(item, tls_pool_context.worker);
    }
    return;
  }
  error_ = nullptr;
  next_.store(0, std::memory_order_relaxed);
  if (workers_ > 0 && count > 1) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &body;
      job_count_ = count;
      finished_ = 0;
      ++generation_;
    }
    wake_.notify_all();
    run_items(body, count, 0);
    {
      // Every background worker must both observe this generation and drain
      // before the job pointer may be retired (a late waker dereferences
      // job_, so clearing it early would race).
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [&] { return finished_ == workers_; });
      job_ = nullptr;
    }
  } else {
    run_items(body, count, 0);
  }
  if (error_) std::rethrow_exception(error_);
}

}  // namespace procon::util
