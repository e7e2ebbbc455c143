// Fault-path coverage for BatteryPack::StepLanes: a faulted cell must be
// masked out of the tick — zero current into its lane, its state bit-for-bit
// untouched (exact `==`), its healthy neighbours stepped exactly as the Cell
// facade steps them — when the pack is stepped directly, when a circuit
// steps it, and when the safety supervisor and the degraded-mode runtime
// drive the masking through the full rig.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chem/cell.h"
#include "src/chem/library.h"
#include "src/chem/pack.h"
#include "src/chem/soa_kernel.h"
#include "src/core/runtime.h"
#include "src/emu/simulator.h"
#include "src/hw/charge_circuit.h"
#include "src/hw/command_link.h"
#include "src/hw/discharge_circuit.h"
#include "src/hw/fault.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"

namespace sdb {
namespace {

BatteryPack MakeThreeCellPack() {
  BatteryPack pack;
  pack.AddCell(Cell(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.6));
  pack.AddCell(Cell(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.6));
  pack.AddCell(Cell(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.6));
  return pack;
}

// Two lane states are bit-for-bit equal. Applied to a masked cell's state
// before and after a run: no charge moved, no heat deposited, no aging
// recorded.
void ExpectLaneStatesBitEqual(const soa::LaneState& before, const soa::LaneState& after) {
  EXPECT_EQ(before.electrical.soc, after.electrical.soc);
  EXPECT_EQ(before.electrical.v_rc_v, after.electrical.v_rc_v);
  EXPECT_EQ(before.aging.capacity_factor, after.aging.capacity_factor);
  EXPECT_EQ(before.aging.total_charge_in_c, after.aging.total_charge_in_c);
  EXPECT_EQ(before.aging.total_charge_out_c, after.aging.total_charge_out_c);
  EXPECT_EQ(before.thermal.temp_k, after.thermal.temp_k);
  EXPECT_EQ(before.thermal.total_heat_j, after.thermal.total_heat_j);
  EXPECT_EQ(before.total_loss_j, after.total_loss_j);
}

TEST(SoaFaultMaskTest, DischargeOpenCircuitLaneCarriesNoCurrent) {
  BatteryPack pack = MakeThreeCellPack();
  pack.SetOpenCircuit(1, true);
  soa::LaneState before = pack.cell(1).ExportLaneState();

  SdbDischargeCircuit circuit(DischargeCircuitConfig{}, 7);
  for (int step = 0; step < 20; ++step) {
    DischargeTick tick = circuit.Step(pack, {1.0 / 3, 1.0 / 3, 1.0 / 3}, Watts(6.0), Seconds(1.0));
    // The faulted lane carries exactly zero current; the survivors carry
    // the load.
    EXPECT_EQ(tick.currents[1].value(), 0.0) << "step=" << step;
    EXPECT_GT(tick.currents[0].value(), 0.0);
    EXPECT_GT(tick.currents[2].value(), 0.0);
  }
  ExpectLaneStatesBitEqual(before, pack.cell(1).ExportLaneState());
}

TEST(SoaFaultMaskTest, DischargeBatchMatchesScalarWithOpenCircuit) {
  // One StepLanes call per tick over the whole pack (the batch) vs the same
  // cells stepped one by one through the Cell facade (the scalar loop), with
  // cell 0 open-circuit. The open lane keeps its request, as a circuit that
  // has not yet seen the fault would send it: StepLanes must drop it, and
  // the survivors must match the facade bit for bit.
  BatteryPack batch_pack = MakeThreeCellPack();
  BatteryPack scalar_pack = MakeThreeCellPack();
  batch_pack.SetOpenCircuit(0, true);
  const double share_w[] = {2.5, 1.5, 1.0};
  std::vector<soa::LaneRequest> requests;
  for (double watts : share_w) {
    requests.push_back({soa::LaneOp::kDischargePower, watts});
  }

  for (int step = 0; step < 50; ++step) {
    batch_pack.StepLanes(requests, Seconds(1.0));
    const soa::RawStepResult& open = batch_pack.lane_result(0);
    EXPECT_EQ(open.current_a, 0.0) << "step=" << step;
    EXPECT_EQ(open.energy_terminals_j, 0.0) << "step=" << step;
    EXPECT_EQ(open.energy_lost_j, 0.0) << "step=" << step;
    for (size_t i = 1; i < 3; ++i) {
      StepResult scalar = scalar_pack.cell(i).StepDischargePower(Watts(share_w[i]), Seconds(1.0));
      const soa::RawStepResult& batch = batch_pack.lane_result(i);
      EXPECT_GT(batch.current_a, 0.0) << "step=" << step << " cell=" << i;
      EXPECT_EQ(batch.current_a, scalar.current.value()) << "step=" << step << " cell=" << i;
      EXPECT_EQ(batch.energy_terminals_j, scalar.energy_at_terminals.value())
          << "step=" << step << " cell=" << i;
      EXPECT_EQ(batch.energy_lost_j, scalar.energy_lost.value())
          << "step=" << step << " cell=" << i;
    }
  }
  // The open cell matches the never-stepped scalar cell 0; the survivors
  // match their facade twins.
  for (size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("cell=" + std::to_string(i));
    ExpectLaneStatesBitEqual(scalar_pack.cell(i).ExportLaneState(),
                             batch_pack.cell(i).ExportLaneState());
  }
}

TEST(SoaFaultMaskTest, ChargeOpenCircuitLaneCarriesNoCurrent) {
  BatteryPack pack = MakeThreeCellPack();
  pack.SetOpenCircuit(2, true);
  soa::LaneState before = pack.cell(2).ExportLaneState();

  std::vector<const BatteryParams*> params{&pack.cell(0).params(), &pack.cell(1).params(),
                                           &pack.cell(2).params()};
  SdbChargeCircuit circuit(ChargeCircuitConfig{}, params, 11);
  for (int step = 0; step < 20; ++step) {
    ChargeTick tick = circuit.Step(pack, {0.4, 0.4, 0.2}, Watts(10.0), Seconds(1.0));
    // The open lane absorbs nothing; the survivors charge (negative current).
    EXPECT_EQ(tick.currents[2].value(), 0.0) << "step=" << step;
    EXPECT_LT(tick.currents[0].value(), 0.0);
    EXPECT_LT(tick.currents[1].value(), 0.0);
    EXPECT_GT(tick.absorbed.value(), 0.0);
  }
  ExpectLaneStatesBitEqual(before, pack.cell(2).ExportLaneState());
}

// End-to-end: the full fault-matrix rig (microcontroller + safety + serial
// link + runtime + simulator) with a fault on battery 0 for the whole run.
// Battery 0 must end bit-for-bit where it started while the other two carry
// the load: StepLanes masks the faulted cell even when the masking is driven
// by the safety supervisor and the degraded-mode runtime rather than by a
// circuit-level check.
void ExpectFaultedLaneUntouchedEndToEnd(FaultClass kind, double magnitude) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), 97);
  soa::LaneState before = micro.pack().cell(0).ExportLaneState();

  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  SafetySupervisor safety(limits);
  micro.AttachSafety(&safety);

  FaultPlan plan;
  plan.seed = 0x50AFA17u;
  plan.Add(FaultEvent{.kind = kind,
                      .start = Seconds(0.0),
                      .end = Hours(2.0),
                      .battery = 0,
                      .magnitude = magnitude,
                      .probability = 1.0});
  micro.InstallFaults(std::move(plan));

  CommandLinkServer server(&micro);
  CommandLinkClient client(
      [&server](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); });
  client.AttachFaultInjector(micro.fault_injector());

  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(0.5);
  runtime.AttachLink(&client);

  SimConfig config;
  config.tick = Seconds(10.0);
  config.runtime_period = Minutes(10.0);
  config.stop_on_shortfall = false;
  Simulator sim(&runtime, config);
  SimResult result = sim.Run(PowerTrace::Constant(Watts(5.0), Hours(1.0)));

  ExpectLaneStatesBitEqual(before, micro.pack().cell(0).ExportLaneState());
  EXPECT_GT(result.delivered.value(), 0.0);
  EXPECT_LT(micro.pack().cell(1).soc(), 0.8);
  EXPECT_LT(micro.pack().cell(2).soc(), 0.8);
}

TEST(SoaFaultMaskTest, EndToEndOpenCircuitLaneStaysUntouched) {
  ExpectFaultedLaneUntouchedEndToEnd(FaultClass::kOpenCircuit, 0.0);
}

TEST(SoaFaultMaskTest, EndToEndThermalTripLaneStaysUntouched) {
  ExpectFaultedLaneUntouchedEndToEnd(FaultClass::kThermalTrip, Celsius(70.0).value());
}

}  // namespace
}  // namespace sdb
