#include "bench/bench_report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/obs/event.h"
#include "src/obs/trace.h"

namespace sdb {
namespace bench {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(BenchReportTest, ToJsonSchema) {
  BenchReport report;
  report.bench = "monte_carlo";
  report.git_sha = "abc123";
  report.jobs = 8;
  report.runs = 24;
  report.reps = 3;
  report.wall_s = 0.5;
  report.AddMetric("mc_cell_steps_per_s", 4.0e7);
  report.AddMetric("mc_wall_s", 2.5);
  std::string json = ToJson(report);
  // Flat single-line object with every top-level key present.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"monte_carlo\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"git_sha\":\"abc123\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"jobs\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"runs\":24"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reps\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_s\":0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"build\":{\"sdb_threads\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mc_cell_steps_per_s\":40000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mc_wall_s\":2.5"), std::string::npos) << json;
  // Metrics serialize in insertion order (stable diffs).
  EXPECT_LT(json.find("mc_cell_steps_per_s"), json.find("mc_wall_s"));
}

TEST(BenchReportTest, BuildInfoSerializesFlagsAndThreadCap) {
  BenchReport report;
  report.bench = std::string("x");
  report.build.sdb_threads = 6;
  report.build.tracing = true;
  report.build.journal = false;
  std::string json = ToJson(report);
  EXPECT_NE(json.find("\"build\":{\"sdb_threads\":6,\"tracing\":1,\"journal\":0}"),
            std::string::npos)
      << json;
  // The default build block reflects this binary's compile-time flags.
  BenchBuildInfo info = BuildInfoFromEnv();
  EXPECT_EQ(info.tracing, SDB_TRACING != 0);
  EXPECT_EQ(info.journal, SDB_JOURNAL != 0);
}

TEST(BenchReportTest, ToJsonEscapesStrings) {
  BenchReport report;
  report.bench = "we\"ird\\name";
  std::string json = ToJson(report);
  EXPECT_NE(json.find("\"bench\":\"we\\\"ird\\\\name\""), std::string::npos) << json;
}

TEST(BenchReportTest, NonFiniteMetricSerializesAsZero) {
  // NaN/inf are not valid JSON numbers; the writer must not emit them.
  BenchReport report;
  report.bench = std::string("x");
  report.AddMetric("bad", std::nan(""));
  std::string json = ToJson(report);
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bad\":0"), std::string::npos) << json;
}

TEST(BenchReportTest, AddMetricOverwritesInPlace) {
  BenchReport report;
  report.AddMetric("a", 1.0);
  report.AddMetric("b", 2.0);
  report.AddMetric("a", 3.0);
  ASSERT_EQ(report.metrics.size(), 2u);
  EXPECT_EQ(report.metrics[0].first, "a");
  EXPECT_EQ(report.metrics[0].second, 3.0);
  EXPECT_EQ(report.Metric("a"), 3.0);
  EXPECT_EQ(report.Metric("b"), 2.0);
  EXPECT_EQ(report.Metric("missing", -1.0), -1.0);
}

TEST(BenchReportTest, MinOfRepsTakesMinimum) {
  int call = 0;
  double wall = MinOfReps(4, [&call]() {
    static const double kWalls[] = {0.9, 0.3, 0.7, 0.5};
    return kWalls[call++];
  });
  EXPECT_EQ(call, 4);
  EXPECT_EQ(wall, 0.3);
}

TEST(BenchReportTest, MinOfRepsClampsToOneRep) {
  int call = 0;
  double wall = MinOfReps(0, [&call]() {
    ++call;
    return 1.5;
  });
  EXPECT_EQ(call, 1);
  EXPECT_EQ(wall, 1.5);
}

TEST(BenchReportTest, WriteBenchReportRoundTrips) {
  BenchReport report;
  report.bench = "smoke";
  report.AddMetric("m", 1.25);
  std::string path = ::testing::TempDir() + "/BENCH_smoke.json";
  ASSERT_TRUE(WriteBenchReport(report, path).ok());
  std::string contents = ReadAll(path);
  EXPECT_EQ(contents, ToJson(report) + "\n");
  std::remove(path.c_str());
}

TEST(BenchReportTest, WriteBenchReportEmptyPathIsNoOp) {
  BenchReport report;
  report.bench = "smoke";
  EXPECT_TRUE(WriteBenchReport(report, "").ok());
}

TEST(BenchReportTest, WriteBenchReportBadPathFails) {
  BenchReport report;
  report.bench = "smoke";
  Status status = WriteBenchReport(report, "/nonexistent-dir-zz/BENCH.json");
  EXPECT_FALSE(status.ok());
}

TEST(BenchReportTest, ParseIntFlag) {
  const char* argv_c[] = {"bench", "--runs", "7", "--jobs", "junk", "--reps"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EQ(ParseIntFlag(6, argv, "runs", 24), 7);
  // Non-numeric and trailing-valueless flags fall back.
  EXPECT_EQ(ParseIntFlag(6, argv, "jobs", 4), 4);
  EXPECT_EQ(ParseIntFlag(6, argv, "reps", 3), 3);
  EXPECT_EQ(ParseIntFlag(6, argv, "absent", 9), 9);
}

TEST(BenchReportTest, ParseBenchOut) {
  const char* argv_c[] = {"bench", "--bench-out", "/tmp/BENCH_x.json"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EQ(ParseBenchOut(3, argv), "/tmp/BENCH_x.json");
  EXPECT_EQ(ParseBenchOut(1, argv), "");
}

}  // namespace
}  // namespace bench
}  // namespace sdb
