#include "src/util/thread_pool.h"

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"

namespace sdb {

namespace {

thread_local bool t_in_worker = false;

// SDB_THREADS when it is set to a positive integer, read strictly (no
// trailing text); nullopt when unset or malformed.
std::optional<int> ThreadsEnv() {
  const char* text = std::getenv("SDB_THREADS");
  if (text == nullptr) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || n <= 0 ||
      n > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(n);
}

}  // namespace

ThreadPool::ThreadPool(int threads, size_t queue_capacity)
    : queue_capacity_(queue_capacity) {
  SDB_CHECK(queue_capacity_ > 0);
  int n = threads > 0 ? threads : DefaultThreadCount();
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  space_ready_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  SDB_CHECK(task != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  SDB_CHECK(!stopping_);
  if (queue_.size() >= queue_capacity_) {
    obs::Stopwatch blocked;
    space_ready_.wait(lock, [this] { return queue_.size() < queue_capacity_ || stopping_; });
    stats_.submit_block += Seconds(blocked.ElapsedSeconds());
    SDB_CHECK(!stopping_);
  }
  queue_.push_back(std::move(task));
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

ThreadPool::Stats ThreadPool::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

int ThreadPool::DefaultThreadCount() {
  if (std::optional<int> n = ThreadsEnv()) {
    return *n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

Status ThreadPool::ValidateThreadsEnv() {
  const char* text = std::getenv("SDB_THREADS");
  if (text == nullptr || ThreadsEnv().has_value()) {
    return Status::Ok();
  }
  return InvalidArgumentError(std::string("SDB_THREADS wants a positive integer, got '") + text +
                              "'");
}

bool ThreadPool::InWorkerThread() { return t_in_worker; }

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      // Shut down only once the queue is drained: queued work always runs.
      if (stopping_) {
        return;
      }
      obs::Stopwatch idle;
      task_ready_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      stats_.worker_wait += Seconds(idle.ElapsedSeconds());
      continue;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    space_ready_.notify_one();
    lock.unlock();
    task();
    lock.lock();
    ++stats_.tasks_executed;
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) {
      idle_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, int64_t n, const std::function<void(int64_t)>& fn) {
  SDB_CHECK(n >= 0);
  if (n == 0) {
    return;
  }
  if (pool == nullptr || pool->thread_count() <= 1 || n == 1 || ThreadPool::InWorkerThread()) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  struct LoopState {
    std::mutex mu;
    std::condition_variable done;
    int64_t remaining;
    // First exception in iteration order; later ones are dropped.
    int64_t error_index = -1;
    std::exception_ptr error;
  };
  LoopState state;
  state.remaining = n;

  for (int64_t i = 0; i < n; ++i) {
    pool->Submit([i, &state, &fn] {
      std::exception_ptr error;
      try {
        fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::unique_lock<std::mutex> lock(state.mu);
      if (error && (state.error_index < 0 || i < state.error_index)) {
        state.error_index = i;
        state.error = error;
      }
      if (--state.remaining == 0) {
        state.done.notify_one();
      }
    });
  }

  std::unique_lock<std::mutex> lock(state.mu);
  state.done.wait(lock, [&state] { return state.remaining == 0; });
  if (state.error) {
    std::rethrow_exception(state.error);
  }
}

}  // namespace sdb
