// Seeded soak harness over the recovery stack (DESIGN.md §9): randomized
// fault schedules against the full rig, with every per-tick invariant
// checked and the whole report pinned to be bit-identical at any --jobs.
#include "src/emu/soak.h"

#include <gtest/gtest.h>

#include "src/hw/fault.h"

namespace sdb {
namespace {

std::string DescribeViolations(const SoakReport& report) {
  std::string out;
  for (const SoakScheduleReport& schedule : report.schedules) {
    for (const SoakViolation& v : schedule.violations) {
      out += "seed " + std::to_string(v.seed) + " @" +
             std::to_string(v.time.value()) + "s [" + v.invariant + "] " +
             v.detail + "\n";
    }
  }
  return out;
}

TEST(SoakInvariantsTest, RandomPlansAreSeededAndBounded) {
  FaultPlan a = MakeRandomFaultPlan(7, 4, Hours(2.0), 6);
  FaultPlan b = MakeRandomFaultPlan(7, 4, Hours(2.0), 6);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GE(a.events.size(), 1u);
  EXPECT_LE(a.events.size(), 6u);
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_DOUBLE_EQ(a.events[i].start.value(), b.events[i].start.value());
    EXPECT_DOUBLE_EQ(a.events[i].end.value(), b.events[i].end.value());
    EXPECT_EQ(a.events[i].battery, b.events[i].battery);
    EXPECT_DOUBLE_EQ(a.events[i].magnitude, b.events[i].magnitude);
    // Windows stay inside the recovery headroom.
    EXPECT_GT(a.events[i].end.value(), a.events[i].start.value());
    EXPECT_LE(a.events[i].end.value(), Hours(2.0).value() * 0.7 + 1e-9);
  }
  // Different seeds give different plans.
  FaultPlan c = MakeRandomFaultPlan(8, 4, Hours(2.0), 6);
  bool differs = a.events.size() != c.events.size();
  for (size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].kind != c.events[i].kind ||
              a.events[i].start.value() != c.events[i].start.value();
  }
  EXPECT_TRUE(differs);
}

// The headline soak: 20 randomized schedules, every invariant holds.
TEST(SoakInvariantsTest, TwentyRandomSchedulesHoldInvariants) {
  SoakConfig config;
  config.base_seed = 1;
  config.schedules = 20;
  config.jobs = 0;  // Auto: SDB_THREADS or hardware concurrency.
  SoakReport report = RunSoak(config);
  ASSERT_EQ(report.schedules.size(), 20u);
  EXPECT_TRUE(report.ok()) << DescribeViolations(report);
  for (const SoakScheduleReport& schedule : report.schedules) {
    EXPECT_TRUE(schedule.completed) << "seed " << schedule.seed;
    EXPECT_TRUE(schedule.recovered) << "seed " << schedule.seed;
  }
}

// A transient-fault run ends where a never-faulted run ends: the convergence
// invariant with a tighter bound on a single known-good schedule. report.ok()
// already holds max_share_delta to kSoakConvergenceTolerance (0.15); this
// schedule ends within 1.4e-5 of its baseline's shares, so 1e-3 keeps a 70x
// margin and still catches a run that settles on a different split.
TEST(SoakInvariantsTest, TransientFaultRunRecoversToBaseline) {
  SoakConfig config;
  config.base_seed = 11;
  config.schedules = 1;
  SoakReport report = RunSoak(config);
  ASSERT_EQ(report.schedules.size(), 1u);
  const SoakScheduleReport& schedule = report.schedules[0];
  EXPECT_TRUE(report.ok()) << DescribeViolations(report);
  EXPECT_TRUE(schedule.recovered);
  EXPECT_LE(schedule.max_share_delta, 1e-3);
}

// Determinism contract: the whole report fingerprint is bit-identical for
// --jobs 1, 2 and 8.
TEST(SoakDeterminismTest, BitIdenticalAcrossJobCounts) {
  SoakConfig config;
  config.base_seed = 42;
  config.schedules = 6;

  config.jobs = 1;
  SoakReport serial = RunSoak(config);
  config.jobs = 2;
  SoakReport two = RunSoak(config);
  config.jobs = 8;
  SoakReport eight = RunSoak(config);

  EXPECT_EQ(serial.fingerprint, two.fingerprint);
  EXPECT_EQ(serial.fingerprint, eight.fingerprint);
  EXPECT_EQ(serial.total_violations, two.total_violations);
  EXPECT_EQ(serial.total_violations, eight.total_violations);
  ASSERT_EQ(serial.schedules.size(), eight.schedules.size());
  for (size_t i = 0; i < serial.schedules.size(); ++i) {
    EXPECT_EQ(serial.schedules[i].fingerprint, eight.schedules[i].fingerprint)
        << "schedule " << i;
    EXPECT_EQ(serial.schedules[i].trips, eight.schedules[i].trips);
    EXPECT_EQ(serial.schedules[i].resyncs, eight.schedules[i].resyncs);
  }
}

}  // namespace
}  // namespace sdb
