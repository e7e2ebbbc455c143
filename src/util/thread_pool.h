// A small fixed-size worker pool with a bounded task queue, plus the
// ParallelFor helper the sweep engines are built on. Deliberately
// work-stealing-free: tasks run in submission order per worker, which keeps
// scheduling simple and makes wait time a meaningful telemetry signal.
//
// Worker count resolution (ThreadPool::DefaultThreadCount):
//   1. the SDB_THREADS environment variable, if set to a positive integer
//      (the whole value; anything else is ignored here and reported by
//      ValidateThreadsEnv),
//   2. std::thread::hardware_concurrency(),
//   3. 1 as the last resort.
//
// Determinism contract: the pool never reorders results — callers that need
// reproducible output (e.g. RunMonteCarlo) write into pre-sized slots keyed
// by task index and reduce in index order afterwards, so the outcome is
// independent of which worker ran which task.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

class ThreadPool {
 public:
  // Aggregate counters for observability; snapshot via stats().
  struct Stats {
    uint64_t tasks_executed = 0;
    Duration worker_wait;   // Time workers spent blocked on an empty queue.
    Duration submit_block;  // Time submitters spent blocked on a full queue.
  };

  // `threads` <= 0 means DefaultThreadCount(). The queue holds at most
  // `queue_capacity` pending tasks; Submit blocks once it is full
  // (backpressure instead of unbounded memory growth).
  explicit ThreadPool(int threads = 0, size_t queue_capacity = 1024);

  // Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; blocks while the queue is full. Tasks must not throw —
  // use ParallelFor (which captures exceptions) for fallible work.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no task is in flight.
  void Wait();

  int thread_count() const { return static_cast<int>(workers_.size()); }
  Stats stats() const;

  // SDB_THREADS override, else hardware concurrency, else 1.
  static int DefaultThreadCount();

  // InvalidArgument when SDB_THREADS is set to anything but a positive
  // integer, so a command line tool can refuse it instead of silently
  // running on the hardware count; OK when it is unset or valid.
  static Status ValidateThreadsEnv();

  // True when the calling thread is one of this pool's workers (or any
  // pool's worker) — used to run nested parallel loops inline.
  static bool InWorkerThread();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_ready_;    // Queue became non-empty (or stopping).
  std::condition_variable space_ready_;   // Queue dropped below capacity.
  std::condition_variable idle_;          // Queue empty and nothing in flight.
  std::deque<std::function<void()>> queue_;
  size_t queue_capacity_;
  size_t in_flight_ = 0;
  bool stopping_ = false;
  Stats stats_;
  std::vector<std::thread> workers_;
};

// Runs fn(i) for every i in [0, n) across the pool and blocks until all
// iterations finish. If any iteration throws, the first exception (in
// iteration order) is rethrown in the caller after the loop drains.
//
// Runs inline — preserving exception semantics — when `pool` is null, has a
// single worker, n <= 1, or the caller is itself a pool worker (nested
// ParallelFor would otherwise deadlock waiting for its own thread).
void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn);

}  // namespace sdb

#endif  // SRC_UTIL_THREAD_POOL_H_
