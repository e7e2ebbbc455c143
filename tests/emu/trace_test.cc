#include "src/emu/trace.h"

#include <vector>

#include <gtest/gtest.h>

namespace sdb {
namespace {

TEST(TraceTest, EmptyTraceSamplesZero) {
  PowerTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(5.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.TotalDuration().value(), 0.0);
}

TEST(TraceTest, AppendAndSample) {
  PowerTrace trace;
  trace.Append(Seconds(10.0), Watts(2.0));
  trace.Append(Seconds(5.0), Watts(7.0));
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(0.0)).value(), 2.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(9.99)).value(), 2.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(10.0)).value(), 7.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(14.9)).value(), 7.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(15.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(-1.0)).value(), 0.0);
}

// Reference for the hinted sampler: a linear scan for the segment holding t.
Power LinearScanSample(const PowerTrace& trace, double t) {
  for (const TraceSegment& seg : trace.segments()) {
    if (seg.start.value() <= t && t < seg.start.value() + seg.duration.value()) {
      return seg.power;
    }
  }
  return Watts(0.0);
}

TEST(TraceTest, HintedSampleMatchesLinearScan) {
  PowerTrace trace;
  trace.Append(Seconds(10.0), Watts(2.0));
  trace.Append(Seconds(0.5), Watts(7.0));
  trace.Append(Seconds(3.0), Watts(0.0));
  trace.Append(Seconds(4.0), Watts(5.0));
  // Forward in small steps (hint hits and successor hits), then jumps
  // backwards and past the end (stale hints fall back to the search).
  std::vector<double> times;
  for (double t = -1.0; t < 20.0; t += 0.25) {
    times.push_back(t);
  }
  for (double t : {15.0, 0.0, 10.5, 17.5, 30.0, 3.0, 10.0, 13.5, -2.0, 14.0}) {
    times.push_back(t);
  }
  size_t hint = 0;
  for (double t : times) {
    EXPECT_EQ(trace.Sample(Seconds(t), &hint), LinearScanSample(trace, t)) << "t=" << t;
    EXPECT_EQ(trace.Sample(Seconds(t)), LinearScanSample(trace, t)) << "t=" << t;
  }
  size_t stale = 99;
  EXPECT_EQ(trace.Sample(Seconds(12.0), &stale), LinearScanSample(trace, 12.0));
}

TEST(TraceTest, TotalDurationAndEnergy) {
  PowerTrace trace;
  trace.Append(Minutes(1.0), Watts(3.0));
  trace.Append(Minutes(2.0), Watts(1.0));
  EXPECT_DOUBLE_EQ(trace.TotalDuration().value(), 180.0);
  EXPECT_DOUBLE_EQ(trace.TotalEnergy().value(), 3.0 * 60.0 + 1.0 * 120.0);
}

TEST(TraceTest, EnergyBetween) {
  PowerTrace trace;
  trace.Append(Seconds(10.0), Watts(2.0));
  trace.Append(Seconds(10.0), Watts(4.0));
  EXPECT_DOUBLE_EQ(trace.EnergyBetween(Seconds(5.0), Seconds(15.0)).value(),
                   5.0 * 2.0 + 5.0 * 4.0);
  EXPECT_DOUBLE_EQ(trace.EnergyBetween(Seconds(15.0), Seconds(5.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.EnergyBetween(Seconds(100.0), Seconds(200.0)).value(), 0.0);
}

TEST(TraceTest, PeakPower) {
  PowerTrace trace;
  trace.Append(Seconds(1.0), Watts(2.0));
  trace.Append(Seconds(1.0), Watts(9.0));
  trace.Append(Seconds(1.0), Watts(4.0));
  EXPECT_DOUBLE_EQ(trace.PeakPower().value(), 9.0);
}

TEST(TraceTest, ConstantFactory) {
  PowerTrace trace = PowerTrace::Constant(Watts(5.0), Hours(1.0));
  EXPECT_DOUBLE_EQ(trace.Sample(Minutes(30.0)).value(), 5.0);
  EXPECT_DOUBLE_EQ(trace.TotalEnergy().value(), 5.0 * 3600.0);
}

TEST(TraceTest, ScaledMultipliesPower) {
  PowerTrace trace = PowerTrace::Constant(Watts(4.0), Seconds(10.0)).Scaled(0.5);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(1.0)).value(), 2.0);
}

TEST(TraceTest, ConcatenatedAppends) {
  PowerTrace a = PowerTrace::Constant(Watts(1.0), Seconds(10.0));
  PowerTrace b = PowerTrace::Constant(Watts(2.0), Seconds(10.0));
  PowerTrace c = a.Concatenated(b);
  EXPECT_DOUBLE_EQ(c.TotalDuration().value(), 20.0);
  EXPECT_DOUBLE_EQ(c.Sample(Seconds(15.0)).value(), 2.0);
}

TEST(TraceDeathTest, RejectsNonPositiveDuration) {
  PowerTrace trace;
  EXPECT_DEATH(trace.Append(Seconds(0.0), Watts(1.0)), "CHECK failed");
}

TEST(TraceDeathTest, RejectsNegativePower) {
  PowerTrace trace;
  EXPECT_DEATH(trace.Append(Seconds(1.0), Watts(-1.0)), "CHECK failed");
}

}  // namespace
}  // namespace sdb
