// Property-style differential suite for BatteryPack::StepLanes, the SDB
// circuits' one way to step cells: for every chemistry x temperature x dt x
// load mix, a cell stepped through the Cell facade and the same cell stepped
// through a pack's StepLanes must produce bit-identical state and step
// results. Exact `==` on doubles is deliberate — the kernel's contract is
// bit-identity, not closeness (DESIGN.md §12), and any tolerance would mask
// a divergence that breaks the pinned goldens.
#include "src/chem/soa_kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/chem/cell.h"
#include "src/chem/library.h"
#include "src/chem/pack.h"
#include "src/chem/thevenin.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace sdb {
namespace {

// Applies one request to a cell through the public Cell facade.
StepResult FacadeStep(Cell& cell, soa::LaneOp op, double magnitude, double dt_s) {
  switch (op) {
    case soa::LaneOp::kDischargePower:
      return cell.StepDischargePower(Watts(magnitude), Seconds(dt_s));
    case soa::LaneOp::kDischargeCurrent:
      return cell.StepDischargeCurrent(Amps(magnitude), Seconds(dt_s));
    case soa::LaneOp::kChargePower:
      return cell.StepChargePower(Watts(magnitude), Seconds(dt_s));
    case soa::LaneOp::kChargeCurrent:
      return cell.StepChargeCurrent(Amps(magnitude), Seconds(dt_s));
    case soa::LaneOp::kIdle:
      break;
  }
  return StepResult{};
}

// Steps lane `lane` of `pack` alone: every other lane idles this call.
const soa::RawStepResult& LaneStep(BatteryPack& pack, size_t lane, soa::LaneOp op,
                                   double magnitude, double dt_s) {
  std::vector<soa::LaneRequest> requests(pack.size());
  requests[lane] = {op, magnitude};
  pack.StepLanes(requests, Seconds(dt_s));
  return pack.lane_result(lane);
}

// Bitwise equality that treats NaN-free doubles exactly; any mismatch
// reports the differing field by name.
::testing::AssertionResult BitEqual(const char* field, double facade, double lanes) {
  if (facade == lanes) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << field << " diverged: facade=" << facade << " lanes=" << lanes
         << " (delta=" << (lanes - facade) << ")";
}

// Compares the full exported lane state of two cells bit for bit.
void ExpectLaneStateEqual(const Cell& facade_cell, const Cell& lane_cell,
                          const std::string& context) {
  soa::LaneState a = facade_cell.ExportLaneState();
  soa::LaneState b = lane_cell.ExportLaneState();
  SCOPED_TRACE(context);
  EXPECT_TRUE(BitEqual("soc", a.electrical.soc, b.electrical.soc));
  EXPECT_TRUE(BitEqual("v_rc_v", a.electrical.v_rc_v, b.electrical.v_rc_v));
  EXPECT_TRUE(
      BitEqual("resistance_scale", a.electrical.resistance_scale, b.electrical.resistance_scale));
  EXPECT_TRUE(BitEqual("capacity_factor", a.aging.capacity_factor, b.aging.capacity_factor));
  EXPECT_TRUE(BitEqual("cycle_count", a.aging.cycle_count, b.aging.cycle_count));
  EXPECT_TRUE(
      BitEqual("cumulative_charge_c", a.aging.cumulative_charge_c, b.aging.cumulative_charge_c));
  EXPECT_TRUE(BitEqual("weighted_current_sum", a.aging.weighted_current_sum,
                       b.aging.weighted_current_sum));
  EXPECT_TRUE(
      BitEqual("weighted_charge_sum", a.aging.weighted_charge_sum, b.aging.weighted_charge_sum));
  EXPECT_TRUE(BitEqual("total_charge_in_c", a.aging.total_charge_in_c, b.aging.total_charge_in_c));
  EXPECT_TRUE(
      BitEqual("total_charge_out_c", a.aging.total_charge_out_c, b.aging.total_charge_out_c));
  EXPECT_TRUE(BitEqual("temp_k", a.thermal.temp_k, b.thermal.temp_k));
  EXPECT_TRUE(BitEqual("total_heat_j", a.thermal.total_heat_j, b.thermal.total_heat_j));
  EXPECT_TRUE(BitEqual("total_loss_j", a.total_loss_j, b.total_loss_j));
}

// Compares the facade's typed StepResult with the lane's RawStepResult.
void ExpectStepResultEqual(const StepResult& facade, const soa::RawStepResult& lane,
                           const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_TRUE(BitEqual("current_a", facade.current.value(), lane.current_a));
  EXPECT_TRUE(BitEqual("terminal_v", facade.terminal_voltage.value(), lane.terminal_v));
  EXPECT_TRUE(
      BitEqual("energy_terminals_j", facade.energy_at_terminals.value(), lane.energy_terminals_j));
  EXPECT_TRUE(
      BitEqual("energy_chemical_j", facade.energy_chemical.value(), lane.energy_chemical_j));
  EXPECT_TRUE(BitEqual("energy_lost_j", facade.energy_lost.value(), lane.energy_lost_j));
  EXPECT_EQ(facade.limited, lane.limited) << context;
}

struct GridPoint {
  int chemistry = 0;       // Index into MakeBatteryLibrary().
  double initial_soc = 0.5;
  double temp_k = 298.15;  // Forced initial cell temperature.
  double dt_s = 1.0;
  bool charge_heavy = false;  // Biases the random op mix toward charging.
};

// Drives one grid point: two identical cells, one through the facade, one
// as a one-cell pack through StepLanes, over `steps` seeded random
// requests. State is compared after every step so the FIRST divergent
// step is reported, not a downstream casualty.
void RunDifferential(const GridPoint& g, uint64_t seed, int steps) {
  std::vector<BatteryParams> library = MakeBatteryLibrary();
  ASSERT_LT(g.chemistry, static_cast<int>(library.size()));
  Cell facade_cell(library[g.chemistry], g.initial_soc);
  facade_cell.mutable_thermal().set_temperature(Kelvin(g.temp_k));
  BatteryPack pack;
  pack.AddCell(Cell(library[g.chemistry], g.initial_soc));
  pack.cell(0).mutable_thermal().set_temperature(Kelvin(g.temp_k));

  Rng rng(seed);
  constexpr soa::LaneOp kOps[] = {soa::LaneOp::kDischargePower, soa::LaneOp::kDischargeCurrent,
                                  soa::LaneOp::kChargePower, soa::LaneOp::kChargeCurrent};
  for (int step = 0; step < steps; ++step) {
    // Pick an op; charge_heavy grids draw charging ops 3x as often.
    uint64_t pick = rng.NextBounded(g.charge_heavy ? 8 : 4);
    soa::LaneOp op = kOps[g.charge_heavy ? (pick < 2 ? pick : 2 + (pick & 1)) : pick];
    // Magnitudes span gentle loads through requests far beyond the
    // datasheet limits, so the clamp branches are exercised too.
    bool power_op = op == soa::LaneOp::kDischargePower || op == soa::LaneOp::kChargePower;
    double magnitude =
        power_op ? rng.Uniform(0.0, 30.0) : rng.Uniform(0.0, 12.0);

    StepResult facade_result = FacadeStep(facade_cell, op, magnitude, g.dt_s);
    const soa::RawStepResult& lane_result = LaneStep(pack, 0, op, magnitude, g.dt_s);

    std::string context = "chemistry=" + std::to_string(g.chemistry) +
                          " temp_k=" + std::to_string(g.temp_k) +
                          " dt_s=" + std::to_string(g.dt_s) + " step=" + std::to_string(step) +
                          " op=" + std::to_string(static_cast<int>(op)) +
                          " magnitude=" + std::to_string(magnitude);
    ExpectStepResultEqual(facade_result, lane_result, context);
    ExpectLaneStateEqual(facade_cell, pack.cell(0), context);
    if (::testing::Test::HasFailure()) {
      return;  // First divergence is the interesting one.
    }
  }
}

TEST(SoaKernelDiffTest, AllChemistriesRandomizedMixedLoad) {
  std::vector<BatteryParams> library = MakeBatteryLibrary();
  for (int chem = 0; chem < static_cast<int>(library.size()); ++chem) {
    GridPoint g;
    g.chemistry = chem;
    g.initial_soc = 0.6;
    RunDifferential(g, /*seed=*/0x5d0a0001u + static_cast<uint64_t>(chem), /*steps=*/200);
  }
}

TEST(SoaKernelDiffTest, TemperatureGrid) {
  // Cold cells grow DCIR (cold_resistance_per_k) and hot cells age the
  // thermal ledger differently; both must track bit for bit.
  for (double temp_k : {263.15, 283.15, 298.15, 318.15}) {
    for (int chem : {0, 5, 8}) {
      GridPoint g;
      g.chemistry = chem;
      g.temp_k = temp_k;
      RunDifferential(g, /*seed=*/0x5d0a1000u + static_cast<uint64_t>(temp_k), /*steps=*/150);
    }
  }
}

TEST(SoaKernelDiffTest, DtGrid) {
  // Sub-second through half-minute steps: the dt-keyed decay memos and the
  // SoC clamp fast path must stay exact at every step size.
  for (double dt_s : {0.1, 0.5, 1.0, 5.0, 30.0}) {
    for (int chem : {1, 6}) {
      GridPoint g;
      g.chemistry = chem;
      g.dt_s = dt_s;
      RunDifferential(g, /*seed=*/0x5d0a2000u + static_cast<uint64_t>(dt_s * 10.0),
                      /*steps=*/150);
    }
  }
}

TEST(SoaKernelDiffTest, ChargeHeavyMix) {
  // Charging drives the cycle-counting fade loop (AgingRecordCharge) hard.
  for (int chem : {2, 7, 12}) {
    GridPoint g;
    g.chemistry = chem;
    g.initial_soc = 0.2;
    g.charge_heavy = true;
    RunDifferential(g, /*seed=*/0x5d0a3000u + static_cast<uint64_t>(chem), /*steps=*/300);
  }
}

TEST(SoaKernelDiffTest, EmptyCellClampEdge) {
  // Draining an empty cell: the clamp must zero the current identically on
  // both paths (this is the slow path of the SoC-clamp fast path).
  for (int chem : {0, 9}) {
    GridPoint g;
    g.chemistry = chem;
    g.initial_soc = 0.002;
    RunDifferential(g, /*seed=*/0x5d0a4000u + static_cast<uint64_t>(chem), /*steps=*/120);
  }
}

TEST(SoaKernelDiffTest, FullCellClampEdge) {
  // Charging a full cell: the charge-side clamp engages immediately.
  for (int chem : {3, 10}) {
    GridPoint g;
    g.chemistry = chem;
    g.initial_soc = 0.999;
    g.charge_heavy = true;
    RunDifferential(g, /*seed=*/0x5d0a5000u + static_cast<uint64_t>(chem), /*steps=*/120);
  }
}

TEST(SoaKernelDiffTest, CurrentLimitClamp) {
  // Requests far beyond the datasheet current limits: the limited flag and
  // the clamped current must agree exactly.
  std::vector<BatteryParams> library = MakeBatteryLibrary();
  Cell facade_cell(library[4], 0.5);
  BatteryPack pack;
  pack.AddCell(Cell(library[4], 0.5));
  for (int step = 0; step < 50; ++step) {
    soa::LaneOp op =
        (step % 2 == 0) ? soa::LaneOp::kDischargeCurrent : soa::LaneOp::kChargeCurrent;
    double magnitude = 1.0e4;  // Far beyond any datasheet limit.
    StepResult facade_result = FacadeStep(facade_cell, op, magnitude, 1.0);
    const soa::RawStepResult& lane_result = LaneStep(pack, 0, op, magnitude, 1.0);
    ExpectStepResultEqual(facade_result, lane_result, "current-limit step");
    ExpectLaneStateEqual(facade_cell, pack.cell(0), "current-limit step");
  }
}

TEST(SoaKernelDiffTest, IdleLaneIsUntouched) {
  // A kIdle lane and an open-circuit lane must not move at all — no
  // electrical, aging or thermal drift — exactly like a cell that is never
  // stepped, and both read an all-zero result, not the last tick's. Only
  // the stepped lane counts as a cell-step. This is the masking contract the
  // fault paths rely on.
  std::vector<BatteryParams> library = MakeBatteryLibrary();
  BatteryPack pack;
  for (int i = 0; i < 3; ++i) {
    pack.AddCell(Cell(library[0], 0.7));
  }
  // One tick with every lane stepped, so each result is non-zero; then lane
  // 1 goes idle and lane 2 open-circuit (its request stays).
  std::vector<soa::LaneRequest> requests(3, {soa::LaneOp::kDischargePower, 2.0});
  pack.StepLanes(requests, Seconds(1.0));
  ASSERT_GT(pack.lane_result(1).current_a, 0.0);
  ASSERT_GT(pack.lane_result(2).current_a, 0.0);
  requests[1].op = soa::LaneOp::kIdle;
  pack.SetOpenCircuit(2, true);
  constexpr size_t kMasked[] = {1, 2};
  std::vector<soa::LaneState> before;
  for (size_t lane : kMasked) {
    before.push_back(pack.cell(lane).ExportLaneState());
  }
  const double active_soc = pack.cell(0).soc();

  const uint64_t steps_before = soa::TotalCellSteps();
  for (int step = 0; step < 100; ++step) {
    pack.StepLanes(requests, Seconds(1.0));
  }
  EXPECT_EQ(soa::TotalCellSteps() - steps_before, 100u);

  for (size_t k = 0; k < 2; ++k) {
    const size_t lane = kMasked[k];
    SCOPED_TRACE("lane=" + std::to_string(lane));
    soa::LaneState after = pack.cell(lane).ExportLaneState();
    EXPECT_TRUE(BitEqual("soc", before[k].electrical.soc, after.electrical.soc));
    EXPECT_TRUE(BitEqual("v_rc_v", before[k].electrical.v_rc_v, after.electrical.v_rc_v));
    EXPECT_TRUE(BitEqual("temp_k", before[k].thermal.temp_k, after.thermal.temp_k));
    EXPECT_TRUE(BitEqual("total_loss_j", before[k].total_loss_j, after.total_loss_j));
    EXPECT_TRUE(BitEqual("capacity_factor", before[k].aging.capacity_factor,
                         after.aging.capacity_factor));
    const soa::RawStepResult& result = pack.lane_result(lane);
    EXPECT_EQ(result.current_a, 0.0);
    EXPECT_EQ(result.terminal_v, 0.0);
    EXPECT_EQ(result.energy_terminals_j, 0.0);
    EXPECT_EQ(result.energy_lost_j, 0.0);
    EXPECT_FALSE(result.limited);
  }
  // The active lane did move.
  EXPECT_LT(pack.cell(0).soc(), active_soc);
  // Reading past the last lane is a checked error in every build.
  EXPECT_DEATH((void)pack.lane_result(3), "CHECK failed");
}

TEST(SoaKernelDiffTest, ManyLanesMatchManyScalarCells) {
  // 32 mixed-chemistry cells stepped by one StepLanes call per tick vs 32
  // facade cells stepped one by one: order independence and per-lane
  // isolation.
  std::vector<BatteryParams> library = MakeBatteryLibrary();
  constexpr int kLanes = 32;
  std::vector<Cell> facade_cells;
  facade_cells.reserve(kLanes);
  BatteryPack pack;
  for (int i = 0; i < kLanes; ++i) {
    const BatteryParams& params = library[i % library.size()];
    double soc = 0.1 + 0.8 * static_cast<double>(i) / kLanes;
    facade_cells.emplace_back(params, soc);
    pack.AddCell(Cell(params, soc));
  }
  Rng rng(0x5d0a6000u);
  std::vector<soa::LaneRequest> requests(kLanes);
  for (int step = 0; step < 100; ++step) {
    for (int i = 0; i < kLanes; ++i) {
      requests[i].op =
          (rng.NextBounded(2) == 0) ? soa::LaneOp::kDischargePower : soa::LaneOp::kChargePower;
      requests[i].magnitude = rng.Uniform(0.0, 8.0);
    }
    pack.StepLanes(requests, Seconds(1.0));
    for (int i = 0; i < kLanes; ++i) {
      StepResult facade_result =
          FacadeStep(facade_cells[i], requests[i].op, requests[i].magnitude, 1.0);
      std::string context = "lane=" + std::to_string(i) + " step=" + std::to_string(step);
      ExpectStepResultEqual(facade_result, pack.lane_result(i), context);
      ExpectLaneStateEqual(facade_cells[i], pack.cell(i), context);
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace sdb
