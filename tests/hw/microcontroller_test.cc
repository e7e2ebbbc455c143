#include "src/hw/microcontroller.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/hw/safety.h"
#include "src/obs/event.h"
#include "src/util/rng.h"
#include "tests/hw/tick_compare.h"

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

#if SDB_JOURNAL
size_t ShortfallEvents(const obs::EventJournal& journal) {
  size_t count = 0;
  for (const obs::JournalEvent& event : journal.Snapshot()) {
    count += event.what == "discharge-shortfall" ? 1 : 0;
  }
  return count;
}

// The shortfall journal latch ends on any tick with no pack load, so each
// shortfall episode is journaled once: after a served tick and after an
// idle one alike.
TEST(MicroJournalTest, ShortfallAfterIdleTickIsJournaledAgain) {
  SdbMicrocontroller micro = MakeMicro();
  obs::EventJournal journal;
  obs::JournalScope scope(&journal);
  const double loads_w[] = {1000.0, 2.0, 1000.0, 0.0, 1000.0};
  for (double load_w : loads_w) {
    micro.Step(Watts(load_w), Watts(0.0), Seconds(1.0));
  }
  EXPECT_EQ(ShortfallEvents(journal), 3u);
  EXPECT_TRUE(micro.SaveState().discharge_circuit.shortfall_latched);
}

TEST(MicroJournalTest, SupplyCoveredTickEndsTheShortfallEpisode) {
  SdbMicrocontroller micro = MakeMicro();
  obs::EventJournal journal;
  obs::JournalScope scope(&journal);
  micro.Step(Watts(1000.0), Watts(0.0), Seconds(1.0));
  micro.Step(Watts(5.0), Watts(5.0), Seconds(1.0));
  EXPECT_FALSE(micro.SaveState().discharge_circuit.shortfall_latched);
  micro.Step(Watts(1000.0), Watts(0.0), Seconds(1.0));
  EXPECT_EQ(ShortfallEvents(journal), 2u);
}
#endif  // SDB_JOURNAL

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

// The idle branches write every per-battery entry of the reused tick: each
// case first fills the entries with a real step, then checks that an idle
// tick leaves each one exactly 0 at the pack's size.
void ExpectNoPackCharge(const MicroTick& tick, size_t n) {
  EXPECT_FALSE(tick.charge.any_charging);
  EXPECT_EQ(tick.charge.absorbed, Watts(0.0));
  EXPECT_EQ(tick.charge.supply_used, Watts(0.0));
  EXPECT_EQ(tick.charge.circuit_loss, Joules(0.0));
  EXPECT_EQ(tick.charge.battery_loss, Joules(0.0));
  ASSERT_EQ(tick.charge.currents.size(), n);
  for (size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    ExpectPositiveZero(tick.charge.currents[i], "charge.currents");
  }
}

TEST(MicroTickReuseTest, IdleDischargeBranchesZeroEveryStaleEntry) {
  struct Case {
    const char* name;
    double load_w;
    double supply_w;
  };
  const Case cases[] = {
      {"no load, no supply", 0.0, 0.0},
      {"supply equals load", 4.0, 4.0},
      {"supply exceeds load", 2.0, 12.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SdbMicrocontroller micro = MakeMicro(0.6, 0.6);
    const size_t n = micro.battery_count();
    const MicroTick& real = micro.Step(Watts(6.0), Watts(0.0), Seconds(1.0));
    for (size_t i = 0; i < n; ++i) {
      ASSERT_GT(real.discharge.currents[i].value(), 0.0);
      ASSERT_GT(real.discharge.battery_power[i].value(), 0.0);
      ASSERT_GT(real.discharge.realised_shares[i], 0.0);
    }
    const MicroTick& tick = micro.Step(Watts(c.load_w), Watts(c.supply_w), Seconds(1.0));
    ExpectNoPackDischarge(tick, n);
    EXPECT_EQ(tick.discharge.requested, Watts(c.load_w));
    EXPECT_EQ(tick.discharge.delivered, Watts(c.load_w));
  }
}

TEST(MicroTickReuseTest, IdleChargeBranchesZeroEveryStaleEntry) {
  struct Case {
    const char* name;
    double load_w;
    double supply_w;
  };
  const Case cases[] = {
      {"no load, no supply", 0.0, 0.0},
      {"pack discharge", 5.0, 0.0},
      {"supply equals load", 4.0, 4.0},
      {"supply short of load", 6.0, 2.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SdbMicrocontroller micro = MakeMicro(0.5, 0.5);
    const size_t n = micro.battery_count();
    const MicroTick& real = micro.Step(Watts(0.0), Watts(30.0), Seconds(1.0));
    for (size_t i = 0; i < n; ++i) {
      ASSERT_LT(real.charge.currents[i].value(), 0.0);
    }
    const MicroTick& tick = micro.Step(Watts(c.load_w), Watts(c.supply_w), Seconds(1.0));
    ExpectNoPackCharge(tick, n);
    EXPECT_EQ(tick.charge.supply_offered, Watts(0.0));
  }
}

// Differential: the microcontroller's tick equals what its circuits' own
// Step returns for the same inputs, bit for bit. A twin pack and twin
// circuits restored from the microcontroller's saved state replay each tick
// (discharge-only, charge-only and idle ticks, with the ratios changed
// along the way), so both sides step identical cells with identical noise.
TEST(MicroTickReuseTest, MicroTickMatchesCircuitStepsBitForBit) {
  SdbMicrocontroller micro = MakeMicro(0.7, 0.4);
  BatteryPack twin;
  twin.AddCell(Cell(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.7));
  twin.AddCell(Cell(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.4));
  MicroState saved = micro.SaveState();
  SdbDischargeCircuit discharge(DischargeCircuitConfig{}, 0);
  discharge.RestoreState(saved.discharge_circuit);
  std::vector<const BatteryParams*> params = {&twin.cell(0).params(), &twin.cell(1).params()};
  SdbChargeCircuit charge(ChargeCircuitConfig{}, params, 0);
  ASSERT_TRUE(charge.RestoreState(saved.charge_circuit).ok());

  Rng rng(31);
  for (int k = 0; k < 600; ++k) {
    SCOPED_TRACE(k);
    if (k % 50 == 0) {
      double s = rng.Uniform(0.05, 0.95);
      ASSERT_TRUE(micro.SetDischargeRatios({s, 1.0 - s}).ok());
      ASSERT_TRUE(micro.SetChargeRatios({1.0 - s, s}).ok());
    }
    double load = 0.0;
    double supply = 0.0;
    switch (k % 4) {
      case 0:
      case 1:
        load = rng.Uniform(0.5, 10.0);
        break;
      case 2:
        supply = rng.Uniform(0.5, 25.0);
        break;
      default:
        break;
    }
    const MicroTick& tick = micro.Step(Watts(load), Watts(supply), Seconds(2.0));
    ExpectSameTick(tick.discharge,
                   discharge.Step(twin, micro.discharge_ratios(), Watts(load), Seconds(2.0)));
    ExpectSameTick(tick.charge,
                   charge.Step(twin, micro.charge_ratios(), Watts(supply), Seconds(2.0)));
  }
  for (size_t i = 0; i < twin.size(); ++i) {
    EXPECT_EQ(micro.pack().cell(i).soc(), twin.cell(i).soc());
  }
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
