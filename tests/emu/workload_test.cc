#include "src/emu/workload.h"

#include <gtest/gtest.h>

namespace sdb {
namespace {

TEST(SmartwatchTest, CoversTwentyFourHours) {
  PowerTrace trace = MakeSmartwatchDayTrace(SmartwatchDayConfig{});
  EXPECT_NEAR(ToHours(trace.TotalDuration()), 24.0, 1e-9);
}

TEST(SmartwatchTest, RunHourDominatesEnergy) {
  SmartwatchDayConfig config;
  PowerTrace trace = MakeSmartwatchDayTrace(config);
  // The hour containing the run uses far more energy than a normal hour.
  Energy run_hour = trace.EnergyBetween(Hours(9.0), Hours(10.0));
  Energy quiet_hour = trace.EnergyBetween(Hours(3.0), Hours(4.0));
  EXPECT_GT(run_hour.value(), 10.0 * quiet_hour.value());
}

TEST(SmartwatchTest, BaselineIsIdlePower) {
  SmartwatchDayConfig config;
  config.checks_per_hour = 0;
  config.run = Watts(0.0);
  PowerTrace trace = MakeSmartwatchDayTrace(config);
  EXPECT_NEAR(trace.Sample(Hours(2.0)).value(), config.idle.value(), 1e-9);
}

TEST(SmartwatchTest, DeterministicForSeed) {
  SmartwatchDayConfig config;
  PowerTrace a = MakeSmartwatchDayTrace(config);
  PowerTrace b = MakeSmartwatchDayTrace(config);
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.segments()[i].power.value(), b.segments()[i].power.value());
  }
}

TEST(SmartwatchTest, RunStartIsConfigurable) {
  SmartwatchDayConfig config;
  config.run_start_hour = 18.0;
  PowerTrace trace = MakeSmartwatchDayTrace(config);
  EXPECT_GT(trace.EnergyBetween(Hours(18.0), Hours(19.0)).value(),
            trace.EnergyBetween(Hours(9.0), Hours(10.0)).value());
}

TEST(TwoInOneTest, ProducesTenNamedWorkloads) {
  auto workloads = MakeTwoInOneWorkloads();
  EXPECT_EQ(workloads.size(), 10u);
  for (const auto& w : workloads) {
    EXPECT_FALSE(w.name.empty());
    EXPECT_GT(w.trace.TotalEnergy().value(), 0.0);
  }
}

TEST(TwoInOneTest, GamingDrawsMoreThanEmail) {
  auto workloads = MakeTwoInOneWorkloads();
  double email = 0.0, gaming = 0.0;
  for (const auto& w : workloads) {
    double mean_w = w.trace.TotalEnergy().value() / w.trace.TotalDuration().value();
    if (w.name == "email") {
      email = mean_w;
    } else if (w.name == "gaming") {
      gaming = mean_w;
    }
  }
  EXPECT_GT(gaming, 2.0 * email);
}

TEST(BurstyTest, RespectsBounds) {
  PowerTrace trace =
      MakeBurstyTrace(Watts(1.0), Watts(8.0), 0.3, Hours(1.0), Minutes(1.0), 5);
  EXPECT_NEAR(ToHours(trace.TotalDuration()), 1.0, 0.02);
  for (const auto& seg : trace.segments()) {
    EXPECT_TRUE(seg.power.value() == 1.0 || seg.power.value() == 8.0);
  }
}

TEST(BurstyTest, BurstFractionApproximatelyHolds) {
  PowerTrace trace =
      MakeBurstyTrace(Watts(1.0), Watts(8.0), 0.25, Hours(10.0), Minutes(1.0), 5);
  int bursts = 0;
  for (const auto& seg : trace.segments()) {
    if (seg.power.value() == 8.0) {
      ++bursts;
    }
  }
  double fraction = static_cast<double>(bursts) / trace.segments().size();
  EXPECT_NEAR(fraction, 0.25, 0.05);
}

TEST(PhoneDayTest, SixteenWakingHours) {
  PowerTrace trace = MakePhoneDayTrace();
  EXPECT_NEAR(ToHours(trace.TotalDuration()), 16.0, 1e-9);
  EXPECT_GT(trace.PeakPower().value(), 2.0);  // The video call.
}

TEST(DroneTest, FlightHasTakeoffCruiseAndLanding) {
  PowerTrace flight = MakeDroneFlightTrace(Minutes(10.0));
  EXPECT_NEAR(ToMinutes(flight.TotalDuration()), 10.0, 0.5);
  EXPECT_DOUBLE_EQ(flight.Sample(Seconds(5.0)).value(), 24.0);   // Takeoff burst.
  EXPECT_GE(flight.Sample(Minutes(5.0)).value(), 10.0);          // Cruise floor.
  EXPECT_DOUBLE_EQ(flight.PeakPower().value(), 24.0);
}

TEST(DroneTest, DeterministicPerSeed) {
  PowerTrace a = MakeDroneFlightTrace(Minutes(5.0), 3);
  PowerTrace b = MakeDroneFlightTrace(Minutes(5.0), 3);
  EXPECT_DOUBLE_EQ(a.TotalEnergy().value(), b.TotalEnergy().value());
}

}  // namespace
}  // namespace sdb
