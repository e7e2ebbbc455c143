#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sdb {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.stats().tasks_executed, 100u);
}

TEST(ThreadPoolTest, DrainsQueuedWorkOnShutdown) {
  std::atomic<int> count{0};
  {
    // Tiny queue + slow-ish tasks: the destructor runs with work still
    // queued and must complete all of it before joining.
    ThreadPool pool(2, /*queue_capacity=*/4);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++count;
      });
    }
  }
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  std::atomic<int> count{0};
  ThreadPool pool(1);
  ParallelFor(&pool, 10, [&count](int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();
  EXPECT_EQ(pool.stats().tasks_executed, 0u);
}

TEST(ThreadPoolTest, DefaultThreadCountHonoursEnvOverride) {
  ASSERT_EQ(setenv("SDB_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3);
  ASSERT_EQ(setenv("SDB_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
  ASSERT_EQ(unsetenv("SDB_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, ThreadsEnvIsParsedStrictly) {
  ASSERT_EQ(unsetenv("SDB_THREADS"), 0);
  const int hardware = ThreadPool::DefaultThreadCount();
  EXPECT_TRUE(ThreadPool::ValidateThreadsEnv().ok());
  for (const char* bad : {"abc", "3abc", "0", "-2", ""}) {
    ASSERT_EQ(setenv("SDB_THREADS", bad, 1), 0);
    EXPECT_EQ(ThreadPool::DefaultThreadCount(), hardware) << "'" << bad << "'";
    Status status = ThreadPool::ValidateThreadsEnv();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "'" << bad << "'";
    EXPECT_EQ(status.message(),
              std::string("SDB_THREADS wants a positive integer, got '") + bad + "'");
  }
  ASSERT_EQ(setenv("SDB_THREADS", "4", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 4);
  EXPECT_TRUE(ThreadPool::ValidateThreadsEnv().ok());
  ASSERT_EQ(unsetenv("SDB_THREADS"), 0);
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](int64_t) { FAIL() << "must not run"; });
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(8, 0);
  ParallelFor(nullptr, 8, [&hits](int64_t i) { hits[static_cast<size_t>(i)] = 1; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 1000, [&hits](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, PropagatesFirstExceptionInIterationOrder) {
  ThreadPool pool(4);
  try {
    ParallelFor(&pool, 64, [](int64_t i) {
      if (i % 2 == 1) {
        throw std::runtime_error("iteration " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "iteration 1");
  }
  // The pool survives a throwing loop and keeps accepting work.
  std::atomic<int> count{0};
  ParallelFor(&pool, 8, [&count](int64_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelForTest, NestedLoopsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ParallelFor(&pool, 4, [&pool, &count](int64_t) {
    // Inner loop runs on a worker thread: it must execute inline rather
    // than wait on the (possibly fully busy) pool.
    ParallelFor(&pool, 4, [&count](int64_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ParallelForTest, MoreTasksThanQueueCapacity) {
  ThreadPool pool(2, /*queue_capacity=*/8);
  std::atomic<int> count{0};
  ParallelFor(&pool, 500, [&count](int64_t) { ++count; });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, StatsTrackWaitTime) {
  ThreadPool pool(2);
  // Let the workers sit idle briefly, then do work: wait time accrues.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<int> count{0};
  ParallelFor(&pool, 4, [&count](int64_t) { ++count; });
  ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(count.load(), 4);
  EXPECT_GT(stats.worker_wait.value(), 0.0);
}

}  // namespace
}  // namespace sdb
