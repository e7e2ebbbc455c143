#include "src/hw/discharge_circuit.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"

namespace sdb {
namespace {

BatteryPack MakePack(double soc0 = 1.0, double soc1 = 1.0) {
  BatteryPack pack;
  pack.AddCell(Cell(MakeFastChargeTablet(MilliAmpHours(4000.0)), soc0));
  pack.AddCell(Cell(MakeHighEnergyTablet(MilliAmpHours(4000.0)), soc1));
  return pack;
}

SdbDischargeCircuit MakeCircuit() { return SdbDischargeCircuit(DischargeCircuitConfig{}, 7); }

TEST(DischargeCircuitTest, DeliversLoadAcrossBothBatteries) {
  BatteryPack pack = MakePack();
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = circuit.Step(pack, {0.5, 0.5}, Watts(6.0), Seconds(1.0));
  EXPECT_FALSE(tick.shortfall);
  EXPECT_NEAR(tick.delivered.value(), 6.0, 0.05);
  EXPECT_GT(tick.currents[0].value(), 0.0);
  EXPECT_GT(tick.currents[1].value(), 0.0);
}

TEST(DischargeCircuitTest, RealisedSharesTrackSetting) {
  BatteryPack pack = MakePack();
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = circuit.Step(pack, {0.3, 0.7}, Watts(8.0), Seconds(1.0));
  EXPECT_NEAR(tick.realised_shares[0], 0.3, 0.02);
  EXPECT_NEAR(tick.realised_shares[1], 0.7, 0.02);
}

TEST(DischargeCircuitTest, ShareErrorEnvelopeMatchesFig6b) {
  SdbDischargeCircuit circuit = MakeCircuit();
  // Mid-range settings are most accurate; the extremes are worst but still
  // under 0.6% (Fig. 6b).
  double mid = circuit.ShareErrorEnvelope(0.5);
  double edge = circuit.ShareErrorEnvelope(0.01);
  EXPECT_LT(mid, edge);
  EXPECT_LE(edge, 0.006);
  EXPECT_GE(mid, 0.0005);
}

TEST(DischargeCircuitTest, CircuitLossMatchesFig6aShape) {
  SdbDischargeCircuit circuit = MakeCircuit();
  // ~1% at light loads, ~1.6% at 10 W.
  double loss_light = circuit.CircuitLossAt(Watts(0.5), Volts(3.7)).value() / 0.5;
  double loss_heavy = circuit.CircuitLossAt(Watts(10.0), Volts(3.7)).value() / 10.0;
  EXPECT_NEAR(loss_light, 0.010, 0.004);
  EXPECT_NEAR(loss_heavy, 0.016, 0.004);
  EXPECT_GT(loss_heavy, loss_light);
}

TEST(DischargeCircuitTest, ZeroShareBatteryDrawsNothing) {
  BatteryPack pack = MakePack();
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = circuit.Step(pack, {1.0, 0.0}, Watts(5.0), Seconds(1.0));
  EXPECT_GT(tick.currents[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(tick.currents[1].value(), 0.0);
}

TEST(DischargeCircuitTest, SpillsToOtherBatteryWhenOneIsEmpty) {
  BatteryPack pack = MakePack(0.0, 1.0);
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = circuit.Step(pack, {0.5, 0.5}, Watts(5.0), Seconds(1.0));
  EXPECT_FALSE(tick.shortfall);
  EXPECT_DOUBLE_EQ(tick.currents[0].value(), 0.0);
  EXPECT_NEAR(tick.delivered.value(), 5.0, 0.05);
}

TEST(DischargeCircuitTest, ShortfallWhenPackCannotServeLoad) {
  BatteryPack pack = MakePack(0.0, 0.0);
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = circuit.Step(pack, {0.5, 0.5}, Watts(5.0), Seconds(1.0));
  EXPECT_TRUE(tick.shortfall);
  EXPECT_DOUBLE_EQ(tick.delivered.value(), 0.0);
}

TEST(DischargeCircuitTest, ZeroLoadIsNoOp) {
  BatteryPack pack = MakePack();
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = circuit.Step(pack, {0.5, 0.5}, Watts(0.0), Seconds(1.0));
  EXPECT_FALSE(tick.shortfall);
  EXPECT_DOUBLE_EQ(tick.delivered.value(), 0.0);
  EXPECT_DOUBLE_EQ(pack.cell(0).soc(), 1.0);
}

void ExpectSameTick(const DischargeTick& a, const DischargeTick& b) {
  EXPECT_EQ(a.requested, b.requested);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.circuit_loss, b.circuit_loss);
  EXPECT_EQ(a.battery_loss, b.battery_loss);
  EXPECT_EQ(a.currents, b.currents);
  EXPECT_EQ(a.battery_power, b.battery_power);
  EXPECT_EQ(a.realised_shares, b.realised_shares);
  EXPECT_EQ(a.shortfall, b.shortfall);
}

// Step hands back one reused tick: a field set by an earlier Step must be
// rewritten, not carried over, by a later one.
TEST(DischargeCircuitTest, ReusedTickClearsAfterOverload) {
  BatteryPack pack = MakePack();
  SdbDischargeCircuit circuit = MakeCircuit();
  const size_t n = pack.size();
  DischargeTick overloaded = circuit.Step(pack, {0.5, 0.5}, Watts(500.0), Seconds(1.0));
  ASSERT_TRUE(overloaded.shortfall);
  ASSERT_GT(overloaded.currents[0].value(), 0.0);
  ASSERT_GT(overloaded.realised_shares[1], 0.0);

  const DischargeTick& idle = circuit.Step(pack, {0.5, 0.5}, Watts(0.0), Seconds(1.0));
  EXPECT_FALSE(idle.shortfall);
  EXPECT_EQ(idle.delivered, Watts(0.0));
  EXPECT_EQ(idle.circuit_loss, Joules(0.0));
  EXPECT_EQ(idle.battery_loss, Joules(0.0));
  EXPECT_EQ(idle.currents, std::vector<Current>(n, Amps(0.0)));
  EXPECT_EQ(idle.battery_power, std::vector<Power>(n, Watts(0.0)));
  EXPECT_EQ(idle.realised_shares, std::vector<double>(n, 0.0));
  SdbDischargeCircuit fresh = MakeCircuit();
  ExpectSameTick(idle, fresh.Step(pack, {0.5, 0.5}, Watts(0.0), Seconds(1.0)));
}

TEST(DischargeCircuitTest, ReusedTickMatchesFreshAfterEmptyPackShortfall) {
  // The empty-pack shortfall returns before any noise draw, so a served
  // tick that follows must equal a fresh circuit's first tick exactly.
  BatteryPack empty = MakePack(0.0, 0.0);
  SdbDischargeCircuit circuit = MakeCircuit();
  ASSERT_TRUE(circuit.Step(empty, {0.5, 0.5}, Watts(5.0), Seconds(1.0)).shortfall);

  BatteryPack reused_pack = MakePack(0.8, 0.8);
  BatteryPack fresh_pack = MakePack(0.8, 0.8);
  SdbDischargeCircuit fresh = MakeCircuit();
  const DischargeTick& served = circuit.Step(reused_pack, {0.4, 0.6}, Watts(5.0), Seconds(1.0));
  EXPECT_FALSE(served.shortfall);
  ExpectSameTick(served, fresh.Step(fresh_pack, {0.4, 0.6}, Watts(5.0), Seconds(1.0)));
}

TEST(DischargeCircuitTest, EnergyLedgerBalances) {
  BatteryPack pack = MakePack();
  SdbDischargeCircuit circuit = MakeCircuit();
  double e0 = pack.TotalRemainingEnergy().value();
  double delivered = 0.0, lost = 0.0;
  for (int k = 0; k < 600; ++k) {
    DischargeTick tick = circuit.Step(pack, {0.5, 0.5}, Watts(8.0), Seconds(1.0));
    delivered += tick.delivered.value();
    lost += tick.battery_loss.value() + tick.circuit_loss.value();
  }
  double e1 = pack.TotalRemainingEnergy().value();
  // Chemical energy drawn ≈ delivered + losses (RC transient is tiny).
  EXPECT_NEAR(e0 - e1, delivered + lost, (e0 - e1) * 0.02);
}

// Property sweep: for any share split, realised shares sum to 1 and track
// the setting within the hardware's error envelope plus spill effects.
class ShareSweep : public ::testing::TestWithParam<double> {};

TEST_P(ShareSweep, RealisedShareTracksSetting) {
  double share = GetParam();
  BatteryPack pack = MakePack();
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = circuit.Step(pack, {share, 1.0 - share}, Watts(6.0), Seconds(1.0));
  EXPECT_NEAR(tick.realised_shares[0] + tick.realised_shares[1], 1.0, 1e-9);
  EXPECT_NEAR(tick.realised_shares[0], share, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Settings, ShareSweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.5, 0.8, 0.95, 0.99));

}  // namespace
}  // namespace sdb
