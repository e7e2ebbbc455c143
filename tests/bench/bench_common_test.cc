// The bench harnesses' shared flag parsing: `--jobs N` takes a positive
// integer or the run stops with a usage error (exit 2), never a silently
// different worker count.
#include "bench/bench_common.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace bench
}  // namespace sdb
