#include "src/emu/trace_io.h"

#include <cstdio>

#include <gtest/gtest.h>

namespace sdb {
namespace {

TEST(TraceIoTest, RoundTrip) {
  PowerTrace trace;
  trace.Append(Seconds(10.0), Watts(2.5));
  trace.Append(Minutes(1.0), Watts(0.125));
  std::string csv = FormatPowerTraceCsv(trace);
  auto parsed = ParsePowerTraceCsv(csv);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->segments().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed->SegmentEnd(0).value(), 10.0);
  EXPECT_DOUBLE_EQ(parsed->segments()[0].power.value(), 2.5);
  EXPECT_DOUBLE_EQ(parsed->segments()[1].power.value(), 0.125);
}

TEST(TraceIoTest, HeaderRequired) {
  auto parsed = ParsePowerTraceCsv("10,2.5\n");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceIoTest, EmptyInputRejected) {
  EXPECT_FALSE(ParsePowerTraceCsv("").ok());
}

TEST(TraceIoTest, CommentsAndBlankLinesSkipped) {
  auto parsed = ParsePowerTraceCsv("# recorded on the bench\nseconds,watts\n\n5,1.0\n# eof\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->segments().size(), 1u);
}

TEST(TraceIoTest, WindowsLineEndings) {
  auto parsed = ParsePowerTraceCsv("seconds,watts\r\n5,1.0\r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->segments().size(), 1u);
}

TEST(TraceIoTest, MalformedRowsRejectedWithLineNumbers) {
  auto missing_comma = ParsePowerTraceCsv("seconds,watts\n5 1.0\n");
  EXPECT_FALSE(missing_comma.ok());
  EXPECT_NE(missing_comma.status().message().find("line 2"), std::string::npos);

  auto bad_number = ParsePowerTraceCsv("seconds,watts\nfive,1.0\n");
  EXPECT_FALSE(bad_number.ok());

  auto negative_power = ParsePowerTraceCsv("seconds,watts\n5,-1.0\n");
  EXPECT_FALSE(negative_power.ok());

  auto zero_duration = ParsePowerTraceCsv("seconds,watts\n0,1.0\n");
  EXPECT_FALSE(zero_duration.ok());
}

TEST(TraceIoTest, DuplicateHeaderRejected) {
  auto parsed = ParsePowerTraceCsv("seconds,watts\n5,1.0\nseconds,watts\n6,2.0\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("duplicate header"), std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos);
}

TEST(TraceIoTest, MissingTrailingNewlineAccepted) {
  auto parsed = ParsePowerTraceCsv("seconds,watts\n5,1.0\n10,2.0");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->segments().size(), 2u);
  EXPECT_DOUBLE_EQ((parsed->SegmentEnd(1) - parsed->segments()[1].start).value(), 10.0);
}

TEST(TraceIoTest, HeaderOnlyParsesToEmptyTrace) {
  auto parsed = ParsePowerTraceCsv("seconds,watts\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(TraceIoTest, MultiDayTraceRoundTrips) {
  // >24 h of segments: the format must not lose precision on long horizons.
  PowerTrace trace;
  for (int hour = 0; hour < 30; ++hour) {
    trace.Append(Hours(1.0), Watts(hour % 2 == 0 ? 0.25 : 1.5));
  }
  auto parsed = ParsePowerTraceCsv(FormatPowerTraceCsv(trace));
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->TotalDuration().value(), trace.TotalDuration().value());
  EXPECT_DOUBLE_EQ(parsed->TotalEnergy().value(), trace.TotalEnergy().value());
}

TEST(TraceIoTest, FileRoundTrip) {
  PowerTrace trace = PowerTrace::Constant(Watts(3.0), Minutes(2.0));
  std::string path = ::testing::TempDir() + "/sdb_trace_io_test.csv";
  ASSERT_TRUE(WritePowerTraceFile(trace, path).ok());
  auto loaded = ReadPowerTraceFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->TotalEnergy().value(), trace.TotalEnergy().value());
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileIsNotFound) {
  auto loaded = ReadPowerTraceFile("/nonexistent/sdb.csv");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sdb
