#include "src/hw/microcontroller.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/hw/safety.h"

namespace sdb {
namespace {

SdbMicrocontroller MakeMicro(double soc0 = 1.0, double soc1 = 1.0) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), soc0);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), soc1);
  return MakeDefaultMicrocontroller(std::move(cells), 5);
}

TEST(MicroTest, RatioValidationArity) {
  SdbMicrocontroller micro = MakeMicro();
  EXPECT_EQ(micro.SetDischargeRatios({1.0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(micro.SetDischargeRatios({0.3, 0.3, 0.4}).code(), StatusCode::kInvalidArgument);
}

TEST(MicroTest, RatioValidationSum) {
  SdbMicrocontroller micro = MakeMicro();
  EXPECT_EQ(micro.SetDischargeRatios({0.5, 0.6}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(micro.SetDischargeRatios({0.25, 0.75}).ok());
  EXPECT_DOUBLE_EQ(micro.discharge_ratios()[1], 0.75);
}

TEST(MicroTest, RatioValidationNegative) {
  SdbMicrocontroller micro = MakeMicro();
  EXPECT_EQ(micro.SetChargeRatios({-0.5, 1.5}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(micro.SetChargeRatios({0.0, 1.0}).ok());
}

TEST(MicroTest, DefaultRatiosAreUniform) {
  SdbMicrocontroller micro = MakeMicro();
  EXPECT_DOUBLE_EQ(micro.discharge_ratios()[0], 0.5);
  EXPECT_DOUBLE_EQ(micro.charge_ratios()[0], 0.5);
}

TEST(MicroTest, DischargeStepFollowsRatios) {
  SdbMicrocontroller micro = MakeMicro();
  ASSERT_TRUE(micro.SetDischargeRatios({1.0, 0.0}).ok());
  MicroTick tick = micro.Step(Watts(6.0), Watts(0.0), Seconds(1.0));
  EXPECT_GT(tick.discharge.currents[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(tick.discharge.currents[1].value(), 0.0);
}

TEST(MicroTest, ExternalSupplyFeedsLoadFirst) {
  SdbMicrocontroller micro = MakeMicro(0.5, 0.5);
  // Supply 30 W, load 10 W: no battery discharge, surplus charges the pack.
  MicroTick tick = micro.Step(Watts(10.0), Watts(30.0), Seconds(1.0));
  EXPECT_DOUBLE_EQ(tick.discharge.currents[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(tick.discharge.currents[1].value(), 0.0);
  EXPECT_NEAR(tick.discharge.delivered.value(), 10.0, 1e-9);
  EXPECT_TRUE(tick.charge.any_charging);
}

TEST(MicroTest, InsufficientSupplyDrawsRemainderFromPack) {
  SdbMicrocontroller micro = MakeMicro();
  MicroTick tick = micro.Step(Watts(10.0), Watts(4.0), Seconds(1.0));
  EXPECT_FALSE(tick.charge.any_charging);
  EXPECT_NEAR(tick.discharge.delivered.value(), 10.0, 0.1);
  // Batteries supplied ~6 W.
  double battery_w = 0.0;
  for (const auto& p : tick.discharge.battery_power) {
    battery_w += p.value();
  }
  EXPECT_NEAR(battery_w, 6.0, 0.3);
}

TEST(MicroTest, QueryReturnsGaugeEstimates) {
  SdbMicrocontroller micro = MakeMicro(0.8, 0.6);
  auto statuses = micro.QueryBatteryStatus();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_NEAR(statuses[0].soc, 0.8, 0.02);
  EXPECT_NEAR(statuses[1].soc, 0.6, 0.02);
  EXPECT_GT(statuses[0].full_capacity.value(), 0.0);
}

TEST(MicroTest, QueryTracksDischarge) {
  SdbMicrocontroller micro = MakeMicro();
  for (int k = 0; k < 600; ++k) {
    micro.Step(Watts(10.0), Watts(0.0), Seconds(1.0));
  }
  auto statuses = micro.QueryBatteryStatus();
  EXPECT_LT(statuses[0].soc, 1.0);
  // Estimates track ground truth.
  EXPECT_NEAR(statuses[0].soc, micro.pack().cell(0).soc(), 0.03);
  EXPECT_NEAR(statuses[1].soc, micro.pack().cell(1).soc(), 0.03);
}

TEST(MicroTest, TransferApiValidation) {
  SdbMicrocontroller micro = MakeMicro();
  EXPECT_EQ(micro.ChargeOneFromAnother(0, 0, Watts(5.0), Minutes(1.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(micro.ChargeOneFromAnother(0, 5, Watts(5.0), Minutes(1.0)).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(micro.ChargeOneFromAnother(0, 1, Watts(-5.0), Minutes(1.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(micro.ChargeOneFromAnother(0, 1, Watts(5.0), Minutes(1.0)).ok());
  EXPECT_TRUE(micro.transfer_active());
}

TEST(MicroTest, TransferRunsAndExpires) {
  SdbMicrocontroller micro = MakeMicro(1.0, 0.2);
  ASSERT_TRUE(micro.ChargeOneFromAnother(0, 1, Watts(8.0), Minutes(2.0)).ok());
  double soc1_before = micro.pack().cell(1).soc();
  for (int k = 0; k < 121; ++k) {
    micro.Step(Watts(0.0), Watts(0.0), Seconds(1.0));
  }
  EXPECT_FALSE(micro.transfer_active());
  EXPECT_GT(micro.pack().cell(1).soc(), soc1_before);
  EXPECT_LT(micro.pack().cell(0).soc(), 1.0);
}

TEST(MicroTest, TransferStopsWhenDestinationFills) {
  SdbMicrocontroller micro = MakeMicro(1.0, 0.999);
  ASSERT_TRUE(micro.ChargeOneFromAnother(0, 1, Watts(20.0), Hours(5.0)).ok());
  for (int k = 0; k < 600 && micro.transfer_active(); ++k) {
    micro.Step(Watts(0.0), Watts(0.0), Seconds(1.0));
  }
  EXPECT_FALSE(micro.transfer_active());
  EXPECT_TRUE(micro.pack().cell(1).IsFull(0.995));
}

TEST(MicroTest, CancelTransfer) {
  SdbMicrocontroller micro = MakeMicro();
  ASSERT_TRUE(micro.ChargeOneFromAnother(0, 1, Watts(5.0), Hours(1.0)).ok());
  micro.CancelTransfer();
  EXPECT_FALSE(micro.transfer_active());
}

TEST(MicroTest, GaugeAnchorsAtFull) {
  SdbMicrocontroller micro = MakeMicro(0.95, 0.95);
  // Charge to full; gauges should re-anchor at 1.0.
  for (int k = 0; k < 3600; ++k) {
    micro.Step(Watts(0.0), Watts(30.0), Seconds(1.0));
    if (micro.pack().AllFull()) {
      break;
    }
  }
  auto statuses = micro.QueryBatteryStatus();
  EXPECT_NEAR(statuses[0].soc, 1.0, 1e-6);
}

// Step hands back one reused tick. Each case below steps a tick that sets
// a field, then one that must clear it, and checks the second tick exactly.
void ExpectNoPackDischarge(const MicroTick& tick, size_t n) {
  EXPECT_FALSE(tick.discharge.shortfall);
  EXPECT_EQ(tick.discharge.circuit_loss, Joules(0.0));
  EXPECT_EQ(tick.discharge.battery_loss, Joules(0.0));
  EXPECT_EQ(tick.discharge.currents, std::vector<Current>(n, Amps(0.0)));
  EXPECT_EQ(tick.discharge.battery_power, std::vector<Power>(n, Watts(0.0)));
  EXPECT_EQ(tick.discharge.realised_shares, std::vector<double>(n, 0.0));
}

TEST(MicroTickReuseTest, ShortfallClearsOnZeroLoad) {
  SdbMicrocontroller micro = MakeMicro();
  ASSERT_TRUE(micro.Step(Watts(1000.0), Watts(0.0), Seconds(1.0)).discharge.shortfall);
  const MicroTick& tick = micro.Step(Watts(0.0), Watts(0.0), Seconds(1.0));
  ExpectNoPackDischarge(tick, micro.battery_count());
  EXPECT_EQ(tick.discharge.requested, Watts(0.0));
  EXPECT_EQ(tick.discharge.delivered, Watts(0.0));
}

TEST(MicroTickReuseTest, ShortfallClearsWhenSupplyCoversLoad) {
  SdbMicrocontroller micro = MakeMicro();
  ASSERT_TRUE(micro.Step(Watts(1000.0), Watts(0.0), Seconds(1.0)).discharge.shortfall);
  const MicroTick& tick = micro.Step(Watts(5.0), Watts(5.0), Seconds(1.0));
  ExpectNoPackDischarge(tick, micro.battery_count());
  EXPECT_EQ(tick.discharge.requested, Watts(5.0));
  EXPECT_EQ(tick.discharge.delivered, Watts(5.0));
  EXPECT_FALSE(tick.charge.any_charging);
}

TEST(MicroTickReuseTest, ChargingClearsOnIdleTick) {
  SdbMicrocontroller micro = MakeMicro(0.5, 0.5);
  ASSERT_TRUE(micro.Step(Watts(0.0), Watts(30.0), Seconds(1.0)).charge.any_charging);
  const MicroTick& tick = micro.Step(Watts(0.0), Watts(0.0), Seconds(1.0));
  EXPECT_FALSE(tick.charge.any_charging);
  EXPECT_EQ(tick.charge.supply_offered, Watts(0.0));
  EXPECT_EQ(tick.charge.absorbed, Watts(0.0));
  EXPECT_EQ(tick.charge.supply_used, Watts(0.0));
  EXPECT_EQ(tick.charge.circuit_loss, Joules(0.0));
  EXPECT_EQ(tick.charge.battery_loss, Joules(0.0));
  EXPECT_EQ(tick.charge.currents, std::vector<Current>(micro.battery_count(), Amps(0.0)));
}

TEST(MicroTickReuseTest, TransferClearsOnceCancelled) {
  SdbMicrocontroller micro = MakeMicro(1.0, 0.2);
  ASSERT_TRUE(micro.ChargeOneFromAnother(0, 1, Watts(8.0), Minutes(2.0)).ok());
  const MicroTick& moving = micro.Step(Watts(0.0), Watts(0.0), Seconds(1.0));
  ASSERT_TRUE(moving.transfer_active);
  ASSERT_GT(moving.transfer.moved.value(), 0.0);
  micro.CancelTransfer();
  const MicroTick& tick = micro.Step(Watts(0.0), Watts(0.0), Seconds(1.0));
  EXPECT_FALSE(tick.transfer_active);
  EXPECT_EQ(tick.transfer.moved, Joules(0.0));
  EXPECT_EQ(tick.transfer.drawn, Joules(0.0));
  EXPECT_EQ(tick.transfer.circuit_loss, Joules(0.0));
  EXPECT_EQ(tick.transfer.battery_loss, Joules(0.0));
  EXPECT_FALSE(tick.transfer.source_exhausted);
  EXPECT_FALSE(tick.transfer.destination_full);
}

TEST(MicroSafetyTest, FaultedBatteryDropsOutOfTheSplit) {
  SdbMicrocontroller micro = MakeMicro();
  std::vector<SafetyLimits> limits = {DeriveLimits(micro.pack().cell(0).params()),
                                      DeriveLimits(micro.pack().cell(1).params())};
  SafetySupervisor safety(limits);
  micro.AttachSafety(&safety);
  ASSERT_TRUE(micro.SetDischargeRatios({0.5, 0.5}).ok());

  // Trip battery 0 thermally via injection.
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(70.0));
  micro.Step(Watts(5.0), Watts(0.0), Seconds(1.0));  // Inspection trips the fault.
  ASSERT_TRUE(safety.IsFaulted(0));
  EXPECT_EQ(safety.fault(0).kind, FaultKind::kOverTemperature);

  // Subsequent ticks draw everything from battery 1 despite the 50/50 ratio.
  MicroTick tick = micro.Step(Watts(5.0), Watts(0.0), Seconds(1.0));
  EXPECT_DOUBLE_EQ(tick.discharge.currents[0].value(), 0.0);
  EXPECT_GT(tick.discharge.currents[1].value(), 0.0);
  EXPECT_FALSE(tick.discharge.shortfall);

  // Charging also avoids the faulted battery.
  MicroTick charge_tick = micro.Step(Watts(0.0), Watts(20.0), Seconds(1.0));
  EXPECT_DOUBLE_EQ(charge_tick.charge.currents[0].value(), 0.0);

  // Cooling and clearing restores normal scheduling.
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(25.0));
  ASSERT_TRUE(safety.ClearFault(0, micro.pack().cell(0)));
  MicroTick healed = micro.Step(Watts(5.0), Watts(0.0), Seconds(1.0));
  EXPECT_GT(healed.discharge.currents[0].value(), 0.0);
}

TEST(MicroSafetyTest, AllFaultedMeansShortfall) {
  SdbMicrocontroller micro = MakeMicro();
  std::vector<SafetyLimits> limits = {DeriveLimits(micro.pack().cell(0).params()),
                                      DeriveLimits(micro.pack().cell(1).params())};
  SafetySupervisor safety(limits);
  micro.AttachSafety(&safety);
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(70.0));
  micro.mutable_pack().cell(1).mutable_thermal().set_temperature(Celsius(70.0));
  micro.Step(Watts(1.0), Watts(0.0), Seconds(1.0));
  MicroTick tick = micro.Step(Watts(5.0), Watts(0.0), Seconds(1.0));
  EXPECT_TRUE(tick.discharge.shortfall);
  EXPECT_DOUBLE_EQ(tick.discharge.currents[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(tick.discharge.currents[1].value(), 0.0);
}

}  // namespace
}  // namespace sdb
