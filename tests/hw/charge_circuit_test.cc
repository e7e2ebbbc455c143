#include "src/hw/charge_circuit.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/util/rng.h"
#include "tests/hw/tick_compare.h"

namespace sdb {
namespace {

struct Fixture {
  Fixture(double soc0 = 0.2, double soc1 = 0.2)
      : fc(MakeFastChargeTablet(MilliAmpHours(4000.0))),
        he(MakeHighEnergyTablet(MilliAmpHours(4000.0))) {
    pack.AddCell(Cell(fc, soc0));
    pack.AddCell(Cell(he, soc1));
    circuit.emplace(ChargeCircuitConfig{},
                    std::vector<const BatteryParams*>{&pack.cell(0).params(),
                                                      &pack.cell(1).params()},
                    11);
  }

  BatteryParams fc;
  BatteryParams he;
  BatteryPack pack;
  std::optional<SdbChargeCircuit> circuit;
};

TEST(ChargeCircuitTest, ChargesBothBatteries) {
  Fixture f;
  ChargeTick tick = f.circuit->Step(f.pack, {0.5, 0.5}, Watts(20.0), Seconds(1.0));
  EXPECT_TRUE(tick.any_charging);
  EXPECT_LT(tick.currents[0].value(), 0.0);
  EXPECT_LT(tick.currents[1].value(), 0.0);
  EXPECT_GT(tick.absorbed.value(), 0.0);
  EXPECT_LE(tick.supply_used.value(), 20.0 + 1e-9);
}

TEST(ChargeCircuitTest, SupplyUsedExceedsAbsorbedByLosses) {
  Fixture f;
  ChargeTick tick = f.circuit->Step(f.pack, {0.5, 0.5}, Watts(20.0), Seconds(1.0));
  EXPECT_GT(tick.supply_used.value(), tick.absorbed.value());
  EXPECT_NEAR(tick.supply_used.value() - tick.absorbed.value(),
              tick.circuit_loss.value(), 1e-6);
}

TEST(ChargeCircuitTest, ProfileLimitsCaps) {
  // The HE battery accepts only 0.7C (2.8 A); with a huge supply all spare
  // power spills to the fast-charge battery (3C = 12 A).
  Fixture f;
  ChargeTick tick = f.circuit->Step(f.pack, {0.5, 0.5}, Watts(100.0), Seconds(1.0));
  double j_he = -tick.currents[1].value();
  double j_fc = -tick.currents[0].value();
  EXPECT_LE(j_he, f.he.max_charge_current.value() * 1.02);
  EXPECT_GT(j_fc, 2.0 * j_he);
}

TEST(ChargeCircuitTest, FullBatteryTakesNothing) {
  Fixture f(0.2, 1.0);
  ChargeTick tick = f.circuit->Step(f.pack, {0.5, 0.5}, Watts(20.0), Seconds(1.0));
  EXPECT_DOUBLE_EQ(tick.currents[1].value(), 0.0);
  EXPECT_LT(tick.currents[0].value(), 0.0);
}

TEST(ChargeCircuitTest, ZeroSupplyIsNoOp) {
  Fixture f;
  ChargeTick tick = f.circuit->Step(f.pack, {0.5, 0.5}, Watts(0.0), Seconds(1.0));
  EXPECT_FALSE(tick.any_charging);
  EXPECT_DOUBLE_EQ(tick.absorbed.value(), 0.0);
}

void ExpectIdleTick(const ChargeTick& tick, Power offered, size_t n) {
  EXPECT_FALSE(tick.any_charging);
  EXPECT_EQ(tick.supply_offered, offered);
  EXPECT_EQ(tick.absorbed, Watts(0.0));
  EXPECT_EQ(tick.supply_used, Watts(0.0));
  EXPECT_EQ(tick.circuit_loss, Joules(0.0));
  EXPECT_EQ(tick.battery_loss, Joules(0.0));
  EXPECT_EQ(tick.currents, std::vector<Current>(n, Amps(0.0)));
}

// Step hands back one reused tick: a charging tick's fields must not leak
// into a later tick that charges nothing.
TEST(ChargeCircuitTest, ReusedTickClearsAfterCharging) {
  Fixture f;
  ASSERT_TRUE(f.circuit->Step(f.pack, {0.5, 0.5}, Watts(20.0), Seconds(1.0)).any_charging);
  ExpectIdleTick(f.circuit->Step(f.pack, {0.5, 0.5}, Watts(0.0), Seconds(1.0)), Watts(0.0),
                 f.pack.size());

  ASSERT_TRUE(f.circuit->Step(f.pack, {0.5, 0.5}, Watts(20.0), Seconds(1.0)).any_charging);
  // All-zero shares: no battery is offered any of the supply.
  ExpectIdleTick(f.circuit->Step(f.pack, {0.0, 0.0}, Watts(20.0), Seconds(1.0)), Watts(20.0),
                 f.pack.size());
}

// The in-place Step writes every entry of a caller-owned tick exactly once.
// Each early return and uncharged battery below starts from a tick whose
// entries a real step filled with nonzero values, so an entry a path forgot
// to write shows up as a stale nonzero.
ChargeTick FilledTick(size_t batteries) {
  BatteryParams params = MakeFastChargeTablet(MilliAmpHours(4000.0));
  BatteryPack pack;
  std::vector<const BatteryParams*> bank_params;
  for (size_t i = 0; i < batteries; ++i) {
    pack.AddCell(Cell(params, 0.2));
  }
  for (size_t i = 0; i < batteries; ++i) {
    bank_params.push_back(&pack.cell(i).params());
  }
  SdbChargeCircuit circuit(ChargeCircuitConfig{}, bank_params, 11);
  ChargeTick tick;
  circuit.Step(pack, std::vector<double>(batteries, 1.0 / static_cast<double>(batteries)),
               Watts(20.0), Seconds(1.0), &tick);
  EXPECT_TRUE(tick.any_charging);
  EXPECT_GT(tick.absorbed.value(), 0.0);
  EXPECT_GT(tick.supply_used.value(), 0.0);
  EXPECT_GT(tick.circuit_loss.value(), 0.0);
  EXPECT_GT(tick.battery_loss.value(), 0.0);
  for (size_t i = 0; i < batteries; ++i) {
    EXPECT_LT(tick.currents[i].value(), 0.0);
  }
  return tick;
}

TEST(ChargeTickRewriteTest, EarlyReturnsZeroEveryStaleEntry) {
  struct Case {
    const char* name;
    std::vector<double> shares;
    double supply_w;
  };
  const Case cases[] = {
      {"zero supply", {0.5, 0.5}, 0.0},
      {"negative supply", {0.5, 0.5}, -4.0},
      {"all-zero shares", {0.0, 0.0}, 20.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Fixture f;
    for (size_t stale : {f.pack.size() + 2, f.pack.size()}) {
      ChargeTick tick = FilledTick(stale);
      f.circuit->Step(f.pack, c.shares, Watts(c.supply_w), Seconds(1.0), &tick);
      ExpectIdleTick(tick, Watts(c.supply_w), f.pack.size());
    }
  }
}

TEST(ChargeTickRewriteTest, UnchargedBatteryEntriesAreZero) {
  // A zero share, a disconnected battery and a full battery each charge
  // nothing; the other battery charges, so the step takes its full path.
  struct Case {
    const char* name;
    double soc1;
    bool open1;
    std::vector<double> shares;
  };
  const Case cases[] = {
      {"zero share", 0.2, false, {1.0, 0.0}},
      {"open-circuit", 0.2, true, {0.5, 0.5}},
      {"full", 1.0, false, {0.5, 0.5}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Fixture f(0.2, c.soc1);
    f.pack.SetOpenCircuit(1, c.open1);
    ChargeTick tick = FilledTick(f.pack.size());
    f.circuit->Step(f.pack, c.shares, Watts(20.0), Seconds(1.0), &tick);
    ASSERT_EQ(tick.currents.size(), f.pack.size());
    EXPECT_TRUE(tick.any_charging);
    EXPECT_LT(tick.currents[0].value(), 0.0);
    ExpectPositiveZero(tick.currents[1], "currents[1]");
  }
}

TEST(ChargeTickRewriteTest, InPlaceStepMatchesTheOwnedTickBitForBit) {
  // Two circuits on two identical packs, one writing a caller-owned tick
  // and one its own, over a seeded mix of every path.
  Fixture a(0.3, 0.7);
  Fixture b(0.3, 0.7);
  ChargeTick mine = FilledTick(5);
  Rng rng(29);
  for (int k = 0; k < 400; ++k) {
    double s = rng.Uniform(0.0, 1.0);
    std::vector<double> shares = {s, 1.0 - s};
    if (k % 37 == 0) {
      shares = {0.0, 0.0};
    } else if (k % 11 == 0) {
      shares = {1.0, 0.0};
    }
    double supply = k % 13 == 0 ? 0.0 : rng.Uniform(0.5, 30.0);
    a.circuit->Step(a.pack, shares, Watts(supply), Seconds(5.0), &mine);
    const ChargeTick& owned = b.circuit->Step(b.pack, shares, Watts(supply), Seconds(5.0));
    SCOPED_TRACE(k);
    ExpectSameTick(mine, owned);
  }
}

TEST(ChargeCircuitTest, SetpointErrorEnvelopeMatchesFig6d) {
  Fixture f;
  // <= 0.5% everywhere, worst at low currents.
  double low = f.circuit->SetpointErrorEnvelope(Amps(0.2));
  double high = f.circuit->SetpointErrorEnvelope(Amps(2.0));
  EXPECT_GT(low, high);
  EXPECT_LE(low, 0.005);
  EXPECT_GE(high, 0.0005);
}

TEST(ChargeCircuitTest, EfficiencyVsTypicalMatchesFig6c) {
  Fixture f;
  double at_low = f.circuit->EfficiencyVsTypical(Amps(0.8), Volts(3.7));
  double at_high = f.circuit->EfficiencyVsTypical(Amps(2.2), Volts(3.7));
  EXPECT_GT(at_low, at_high);
  EXPECT_GT(at_low, 0.97);
  EXPECT_NEAR(at_high, 0.94, 0.02);
}

TEST(ChargeCircuitTest, ProfileSelectionChangesChargeRate) {
  Fixture standard;
  Fixture gentle;
  ASSERT_TRUE(gentle.circuit->SelectProfile(0, 1).ok());  // Gentle on battery 0.
  ChargeTick t_std = standard.circuit->Step(standard.pack, {1.0, 0.0}, Watts(40.0), Seconds(1.0));
  ChargeTick t_gen = gentle.circuit->Step(gentle.pack, {1.0, 0.0}, Watts(40.0), Seconds(1.0));
  EXPECT_GT(-t_std.currents[0].value(), -t_gen.currents[0].value());
}

TEST(ChargeCircuitTest, SelectProfileValidatesIndices) {
  Fixture f;
  EXPECT_EQ(f.circuit->SelectProfile(9, 0).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.circuit->SelectProfile(0, 9).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(f.circuit->SelectProfile(0, 1).ok());
}

TEST(TransferTest, MovesEnergyBetweenBatteries) {
  Fixture f(1.0, 0.2);
  double soc_src = f.pack.cell(0).soc();
  double soc_dst = f.pack.cell(1).soc();
  TransferTick tick = f.circuit->StepTransfer(f.pack, 0, 1, Watts(8.0), Minutes(5.0));
  EXPECT_GT(tick.moved.value(), 0.0);
  EXPECT_GT(tick.drawn.value(), tick.moved.value());  // Two-stage losses.
  EXPECT_LT(f.pack.cell(0).soc(), soc_src);
  EXPECT_GT(f.pack.cell(1).soc(), soc_dst);
}

TEST(TransferTest, RefusesWhenSourceEmpty) {
  Fixture f(0.0, 0.2);
  TransferTick tick = f.circuit->StepTransfer(f.pack, 0, 1, Watts(5.0), Seconds(1.0));
  EXPECT_TRUE(tick.source_exhausted);
  EXPECT_DOUBLE_EQ(tick.moved.value(), 0.0);
}

TEST(TransferTest, RefusesWhenDestinationFull) {
  Fixture f(1.0, 1.0);
  TransferTick tick = f.circuit->StepTransfer(f.pack, 0, 1, Watts(5.0), Seconds(1.0));
  EXPECT_TRUE(tick.destination_full);
  EXPECT_DOUBLE_EQ(tick.moved.value(), 0.0);
}

TEST(TransferTest, TransferEfficiencyIsRealistic) {
  // Battery-to-battery charging pays two regulator stages plus both cells'
  // internal losses — the §5.3 story about why charge-through is wasteful.
  Fixture f(1.0, 0.2);
  double moved = 0.0, drawn = 0.0;
  for (int k = 0; k < 300; ++k) {
    TransferTick tick = f.circuit->StepTransfer(f.pack, 0, 1, Watts(8.0), Seconds(1.0));
    moved += tick.moved.value();
    drawn += tick.drawn.value();
  }
  double efficiency = moved / drawn;
  EXPECT_GT(efficiency, 0.75);
  EXPECT_LT(efficiency, 0.97);
}

}  // namespace
}  // namespace sdb
