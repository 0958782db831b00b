// Small persistent thread pool for sharded analysis.
//
// The repeated-analysis loops this library parallelises (use-case sweeps,
// mapper candidate scoring) are embarrassingly parallel *per item* but need
// worker-local mutable state (an engine clone per worker) and bitwise
// deterministic results regardless of worker count or scheduling. The pool
// therefore exposes exactly one primitive: an indexed parallel loop whose
// body receives (item index, worker index). Items are handed out through an
// atomic counter (dynamic load balancing); callers write results into
// per-index slots, so the output never depends on which worker ran what.
//
// The calling thread participates as worker 0 — a pool of size 1 owns no
// background thread at all and runs the loop inline, which keeps the serial
// path free of synchronisation overhead and makes "1 thread" genuinely
// sequential in benchmarks.
//
// Nested calls: no library code calls for_each_index from inside a body or
// task running on the same pool — parallelism lives only at the top level
// (use-case sweeps, mapper scoring, service tickets). The pool still guards
// against it, because a nested call would otherwise deadlock: the calling
// worker could never join the generation it waits on. A nested call
// therefore degrades to an inline serial loop on the calling worker,
// reusing the enclosing body's worker index — items run in index order, no
// worker-scratch collisions.
//
// Work queue: beyond the synchronous parallel loop, the pool carries a
// FIFO task queue (post()) for detached jobs — the execution substrate of
// api::AnalysisService tickets. Posted tasks run on background workers
// (inline at post time when the pool has none), interleaved with parallel
// loops on the same workers; the destructor drains every posted task
// before joining. A posted task that calls for_each_index on its own pool
// degrades to the inline serial loop, like any nested call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
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
  [[nodiscard]] std::size_t size() const noexcept { return workers_ + 1; }

  /// Runs body(item, worker) for every item in [0, count), blocking until
  /// all items completed. `worker` is in [0, size()); the caller runs as
  /// worker 0. Bodies for distinct items run concurrently; the same worker
  /// index is never active on two items at once, so worker-indexed scratch
  /// state needs no locking. The first exception thrown by any body is
  /// rethrown to the caller after the loop drains.
  ///
  /// Nest-safe: when called from inside a body already running on *this*
  /// pool, the loop runs inline and serially (items in index order) on the
  /// calling worker, with the enclosing body's worker index — see the
  /// nested-call note above. Exceptions then propagate directly.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t item, std::size_t worker)>& body);

  /// Enqueues a detached task for a background worker (FIFO order across
  /// posts, concurrent execution across workers). Returns immediately; with
  /// no background workers (size() == 1) the task runs inline before
  /// returning, so posted work always completes eventually without anyone
  /// draining a queue. Tasks must not throw (an escaping exception
  /// terminates the process) and must not block on work that only this
  /// pool's workers can perform; a task may call for_each_index on this
  /// pool — it degrades to the inline serial loop. The destructor drains
  /// all posted tasks before joining the workers.
  void post(std::function<void()> task);

 private:
  void worker_loop(std::size_t worker);
  void run_items(const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t count, std::size_t worker);
  void run_task(std::function<void()>& task, std::size_t worker);

  std::size_t workers_ = 0;  // background threads
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::uint64_t generation_ = 0;   // bumps per for_each_index call
  std::size_t finished_ = 0;       // workers done draining this generation
  bool stop_ = false;

  std::deque<std::function<void()>> tasks_;  // posted work, FIFO

  std::atomic<std::size_t> next_{0};
  std::exception_ptr error_;
  std::mutex error_mutex_;
};

}  // namespace procon::util
