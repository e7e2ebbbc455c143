// The bench harnesses' shared flag parsing: `--jobs N` and SDB_THREADS take
// a positive integer or the run stops with a usage error (exit 2), never a
// silently different worker count.
#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace sdb {
namespace bench {
namespace {

int Jobs(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  return ParseJobs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseJobsTest, ReadsAPositiveCount) {
  EXPECT_EQ(Jobs({"--jobs", "3"}), 3);
  EXPECT_EQ(Jobs({"--runs", "8", "--jobs", "1"}), 1);
}

TEST(ParseJobsTest, WithoutTheFlagUsesThePoolDefault) {
  EXPECT_EQ(Jobs({"--runs", "8"}), ThreadPool::DefaultThreadCount());
}

TEST(ParseJobsTest, MalformedOrNonPositiveCountIsAUsageError) {
  for (const char* bad : {"abc", "0", "-2", "3x", ""}) {
    EXPECT_EXIT(Jobs({"--jobs", bad}), testing::ExitedWithCode(2),
                "--jobs wants a positive integer")
        << "--jobs '" << bad << "'";
  }
  EXPECT_EXIT(Jobs({"--jobs"}), testing::ExitedWithCode(2), "--jobs wants a positive integer");
}

TEST(ParseJobsTest, MalformedThreadsEnvIsAUsageError) {
  const char* outer = std::getenv("SDB_THREADS");
  const std::optional<std::string> saved =
      outer != nullptr ? std::optional<std::string>(outer) : std::nullopt;
  for (const char* bad : {"abc", "0", "3x", ""}) {
    setenv("SDB_THREADS", bad, 1);
    const std::string message =
        std::string("bench: SDB_THREADS wants a positive integer, got '") + bad + "'";
    EXPECT_EXIT(Jobs({"--runs", "2"}), testing::ExitedWithCode(2), message)
        << "SDB_THREADS '" << bad << "'";
    // An explicit --jobs does not excuse it, as in sdbsim.
    EXPECT_EXIT(Jobs({"--jobs", "2"}), testing::ExitedWithCode(2), message)
        << "SDB_THREADS '" << bad << "'";
  }
  setenv("SDB_THREADS", "3", 1);
  EXPECT_EQ(Jobs({"--runs", "2"}), 3);
  if (saved.has_value()) {
    setenv("SDB_THREADS", saved->c_str(), 1);
  } else {
    unsetenv("SDB_THREADS");
  }
}

}  // namespace
}  // namespace bench
}  // namespace sdb
