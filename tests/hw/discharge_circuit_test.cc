#include "src/hw/discharge_circuit.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/util/rng.h"
#include "tests/hw/tick_compare.h"

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

// The in-place Step writes every per-battery entry of a caller-owned tick
// exactly once. Each early return and zero-request battery below starts
// from a tick whose entries a real step filled with nonzero values, so an
// entry a path forgot to write shows up as a stale nonzero.
DischargeTick FilledTick(size_t batteries) {
  BatteryPack pack;
  for (size_t i = 0; i < batteries; ++i) {
    pack.AddCell(Cell(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8));
  }
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick;
  // An overload, so the shortfall flag is stale too.
  circuit.Step(pack, std::vector<double>(batteries, 1.0 / static_cast<double>(batteries)),
               Watts(500.0), Seconds(1.0), &tick);
  EXPECT_TRUE(tick.shortfall);
  EXPECT_GT(tick.delivered.value(), 0.0);
  EXPECT_GT(tick.circuit_loss.value(), 0.0);
  EXPECT_GT(tick.battery_loss.value(), 0.0);
  for (size_t i = 0; i < batteries; ++i) {
    EXPECT_GT(tick.currents[i].value(), 0.0);
    EXPECT_GT(tick.battery_power[i].value(), 0.0);
    EXPECT_GT(tick.realised_shares[i], 0.0);
  }
  return tick;
}

void ExpectZeroEntries(const DischargeTick& tick, size_t n) {
  ASSERT_EQ(tick.currents.size(), n);
  ASSERT_EQ(tick.battery_power.size(), n);
  ASSERT_EQ(tick.realised_shares.size(), n);
  for (size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(i);
    ExpectPositiveZero(tick.currents[i], "currents");
    ExpectPositiveZero(tick.battery_power[i], "battery_power");
    ExpectPositiveZero(tick.realised_shares[i], "realised_shares");
  }
  EXPECT_EQ(tick.delivered, Watts(0.0));
  EXPECT_EQ(tick.circuit_loss, Joules(0.0));
  EXPECT_EQ(tick.battery_loss, Joules(0.0));
}

TEST(DischargeTickRewriteTest, EarlyReturnsZeroEveryStaleEntry) {
  struct Case {
    const char* name;
    double soc;
    bool open;
    std::vector<double> shares;
    double load_w;
    bool shortfall;
  };
  const Case cases[] = {
      {"zero load", 0.8, false, {0.5, 0.5}, 0.0, false},
      {"negative load", 0.8, false, {0.5, 0.5}, -3.0, false},
      {"all empty", 0.0, false, {0.5, 0.5}, 5.0, true},
      {"all open-circuit", 0.8, true, {0.5, 0.5}, 5.0, true},
      {"all-zero shares", 0.8, false, {0.0, 0.0}, 5.0, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BatteryPack pack = MakePack(c.soc, c.soc);
    for (size_t i = 0; i < pack.size(); ++i) {
      pack.SetOpenCircuit(i, c.open);
    }
    SdbDischargeCircuit circuit = MakeCircuit();
    // Stale entries from a bigger pack, then from this pack's size.
    for (size_t stale : {pack.size() + 2, pack.size()}) {
      DischargeTick tick = FilledTick(stale);
      circuit.Step(pack, c.shares, Watts(c.load_w), Seconds(1.0), &tick);
      ExpectZeroEntries(tick, pack.size());
      EXPECT_EQ(tick.requested, Watts(c.load_w));
      EXPECT_EQ(tick.shortfall, c.shortfall);
    }
  }
}

TEST(DischargeTickRewriteTest, ZeroRequestBatteryEntriesAreZero) {
  BatteryPack pack = MakePack(0.8, 0.8);
  SdbDischargeCircuit circuit = MakeCircuit();
  DischargeTick tick = FilledTick(pack.size());
  circuit.Step(pack, {1.0, 0.0}, Watts(6.0), Seconds(1.0), &tick);
  ASSERT_EQ(tick.currents.size(), pack.size());
  EXPECT_GT(tick.currents[0].value(), 0.0);
  ExpectPositiveZero(tick.currents[1], "currents[1]");
  ExpectPositiveZero(tick.battery_power[1], "battery_power[1]");
  ExpectPositiveZero(tick.realised_shares[1], "realised_shares[1]");
  EXPECT_DOUBLE_EQ(tick.realised_shares[0], 1.0);

  // A battery that empties mid-run: its availability is 0, so it is
  // requested nothing and its entries must read 0, not the last draw.
  BatteryPack drained = MakePack(0.8, 0.0);
  DischargeTick filled = FilledTick(drained.size());
  circuit.Step(drained, {0.5, 0.5}, Watts(3.0), Seconds(1.0), &filled);
  EXPECT_GT(filled.currents[0].value(), 0.0);
  ExpectPositiveZero(filled.currents[1], "currents[1]");
  ExpectPositiveZero(filled.battery_power[1], "battery_power[1]");
  ExpectPositiveZero(filled.realised_shares[1], "realised_shares[1]");
}

TEST(DischargeTickRewriteTest, InPlaceStepMatchesTheOwnedTickBitForBit) {
  // Two circuits on two identical packs, one writing a caller-owned tick
  // and one its own, over a seeded mix of every path.
  BatteryPack pack_a = MakePack(0.9, 0.6);
  BatteryPack pack_b = MakePack(0.9, 0.6);
  SdbDischargeCircuit a = MakeCircuit();
  SdbDischargeCircuit b = MakeCircuit();
  DischargeTick mine = FilledTick(5);
  Rng rng(23);
  for (int k = 0; k < 400; ++k) {
    double s = rng.Uniform(0.0, 1.0);
    std::vector<double> shares = {s, 1.0 - s};
    if (k % 37 == 0) {
      shares = {0.0, 0.0};
    } else if (k % 11 == 0) {
      shares = {0.0, 1.0};
    }
    double load = k % 13 == 0 ? 0.0 : rng.Uniform(0.5, k % 29 == 0 ? 400.0 : 12.0);
    a.Step(pack_a, shares, Watts(load), Seconds(5.0), &mine);
    const DischargeTick& owned = b.Step(pack_b, shares, Watts(load), Seconds(5.0));
    SCOPED_TRACE(k);
    ExpectSameTick(mine, owned);
  }
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
