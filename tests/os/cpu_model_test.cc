#include "src/os/cpu_model.h"

#include <gtest/gtest.h>

namespace sdb {
namespace {

TEST(CpuModelTest, FrequencyGrowsSublinearlyWithPower) {
  CpuModel cpu;
  Frequency f10 = cpu.FrequencyAt(Watts(10.0));
  Frequency f20 = cpu.FrequencyAt(Watts(20.0));
  Frequency f40 = cpu.FrequencyAt(Watts(40.0));
  EXPECT_LT(f10.value(), f20.value());
  EXPECT_LT(f20.value(), f40.value());
  EXPECT_LT(Ratio(f40, f10), 4.0);  // Far from linear.
  EXPECT_NEAR(ToGigaHertz(f10), ToGigaHertz(cpu.config().ref_freq), 1e-9);
}

TEST(CpuModelTest, PowerCapsFollowLevels) {
  CpuModel cpu;
  Power peak = Watts(100.0);  // Batteries not the limit.
  EXPECT_DOUBLE_EQ(cpu.PowerCapFor(PerfLevel::kLow, peak).value(),
                   cpu.config().long_term_limit.value());
  EXPECT_DOUBLE_EQ(cpu.PowerCapFor(PerfLevel::kMedium, peak).value(),
                   cpu.config().burst_limit.value());
  EXPECT_DOUBLE_EQ(cpu.PowerCapFor(PerfLevel::kHigh, peak).value(),
                   cpu.config().protection_limit.value());
}

TEST(CpuModelTest, BatteryPeakLimitsTheCap) {
  CpuModel cpu;
  // A weak battery system caps even the High level.
  EXPECT_DOUBLE_EQ(cpu.PowerCapFor(PerfLevel::kHigh, Watts(12.0)).value(), 12.0);
}

TEST(CpuModelTest, ComputeBoundTaskSpeedsUpWithPower) {
  CpuModel cpu;
  Task task{"compile", 200.0, 0.0};
  TaskRun low = cpu.Execute(task, cpu.PowerCapFor(PerfLevel::kLow, Watts(100.0)));
  TaskRun high = cpu.Execute(task, cpu.PowerCapFor(PerfLevel::kHigh, Watts(100.0)));
  EXPECT_LT(high.latency.value(), low.latency.value());
  // Fig. 12 shape: roughly 25% latency win from Low to High.
  double speedup = 1.0 - high.latency.value() / low.latency.value();
  EXPECT_GT(speedup, 0.15);
  EXPECT_LT(speedup, 0.45);
}

TEST(CpuModelTest, NetworkBoundTaskGainsNoLatency) {
  CpuModel cpu;
  Task task{"browse", 4.0, 12.0};
  TaskRun low = cpu.Execute(task, cpu.PowerCapFor(PerfLevel::kLow, Watts(100.0)));
  TaskRun high = cpu.Execute(task, cpu.PowerCapFor(PerfLevel::kHigh, Watts(100.0)));
  EXPECT_NEAR(high.latency.value() / low.latency.value(), 1.0, 0.05);
  // ...but costs more energy (the race-to-idle at turbo power wastes it).
  EXPECT_GT(high.energy.value(), low.energy.value());
}

TEST(CpuModelTest, ComputeBoundEnergyTradeoff) {
  CpuModel cpu;
  Task task{"render", 300.0, 0.5};
  TaskRun low = cpu.Execute(task, Watts(15.0));
  TaskRun high = cpu.Execute(task, Watts(38.0));
  // Higher power costs more energy even though latency shrinks.
  EXPECT_GT(high.energy.value(), low.energy.value());
}

TEST(CpuModelTest, PowerProfileMatchesLatency) {
  CpuModel cpu;
  Task task{"mixed", 50.0, 10.0};
  TaskRun run = cpu.Execute(task, Watts(20.0));
  EXPECT_NEAR(run.power_profile.TotalDuration().value(), run.latency.value(), 1e-6);
  EXPECT_NEAR(run.power_profile.TotalEnergy().value(), run.energy.value(), 1e-6);
  EXPECT_DOUBLE_EQ(run.power_profile.PeakPower().value(), 20.0);
}

TEST(CpuModelTest, PerfLevelNames) {
  EXPECT_EQ(PerfLevelName(PerfLevel::kLow), "Low");
  EXPECT_EQ(PerfLevelName(PerfLevel::kMedium), "Medium");
  EXPECT_EQ(PerfLevelName(PerfLevel::kHigh), "High");
}

TEST(CpuModelTest, BurstBudgetThrottlesLongTasks) {
  CpuModel cpu;
  // A long compute task: >3 minutes at burst power.
  Task task{"marathon", 1000.0, 0.0};
  TaskRun unlimited = cpu.Execute(task, Watts(38.0));
  TaskRun budgeted = cpu.Execute(task, Watts(38.0), Watts(15.0));
  EXPECT_GT(budgeted.latency.value(), unlimited.latency.value());
  // The budgeted profile has a burst segment followed by a sustained one.
  ASSERT_GE(budgeted.power_profile.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(budgeted.power_profile.SegmentEnd(0).value(),
                   cpu.config().burst_budget.value());
  EXPECT_GT(budgeted.power_profile.segments()[0].power.value(),
            budgeted.power_profile.segments()[1].power.value());
}

TEST(CpuModelTest, BurstBudgetIrrelevantForShortTasks) {
  CpuModel cpu;
  Task task{"sprint", 50.0, 0.0};  // Finishes well within the budget.
  TaskRun unlimited = cpu.Execute(task, Watts(38.0));
  TaskRun budgeted = cpu.Execute(task, Watts(38.0), Watts(15.0));
  EXPECT_NEAR(budgeted.latency.value(), unlimited.latency.value(), 1e-9);
}

TEST(CpuModelTest, SustainedBatteryLiftsTheThrottle) {
  // The SDB pitch: a high power-density battery makes the sustained cap
  // equal the burst cap, so the throttle never engages.
  CpuModel cpu;
  Task task{"marathon", 1000.0, 0.0};
  TaskRun strong_battery = cpu.Execute(task, Watts(38.0), Watts(38.0));
  TaskRun weak_battery = cpu.Execute(task, Watts(38.0), Watts(15.0));
  EXPECT_LT(strong_battery.latency.value(), weak_battery.latency.value());
}

TEST(TaskTest, NetworkBoundClassification) {
  EXPECT_TRUE((Task{"mail", 1.5, 8.0}).NetworkBound());
  EXPECT_FALSE((Task{"math", 200.0, 0.0}).NetworkBound());
}

TEST(TaskTest, MixesAreConsistent) {
  for (const Task& t : MakeNetworkBoundTasks()) {
    EXPECT_TRUE(t.NetworkBound()) << t.name;
  }
  for (const Task& t : MakeComputeBoundTasks()) {
    EXPECT_FALSE(t.NetworkBound()) << t.name;
  }
}

}  // namespace
}  // namespace sdb
