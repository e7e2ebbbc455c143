#include "src/chem/cell.h"

#include <cmath>
#include <utility>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

namespace {
// Generic thermal lumped parameters: ~40 J/K and 0.5 W/K suit phone-scale
// cells; precise values only shift absolute temperatures, not energy flows.
constexpr double kHeatCapacityJPerK = 40.0;
constexpr double kConductanceWPerK = 0.5;
}  // namespace

Cell::Cell(BatteryParams params, double initial_soc)
    : params_(std::make_shared<const BatteryParams>(std::move(params))),
      ocv_curve_(params_, &params_->ocv_vs_soc),
      electrical_(params_.get(), initial_soc),
      aging_(params_.get()),
      thermal_(kHeatCapacityJPerK, kConductanceWPerK, Celsius(25.0)),
      lane_params_(soa::MakeLaneParams(*params_, kHeatCapacityJPerK, kConductanceWPerK,
                                       Celsius(25.0).value())) {
  ::sdb::Status valid = params_->Validate();
  SDB_CHECK(valid.ok());
}

Cell::Cell(Cell&& other) noexcept
    : params_(std::move(other.params_)),
      ocv_curve_(std::move(other.ocv_curve_)),
      electrical_(other.electrical_),
      aging_(other.aging_),
      thermal_(other.thermal_),
      lane_params_(other.lane_params_),
      total_loss_j_(other.total_loss_j_) {}

Cell& Cell::operator=(Cell&& other) noexcept {
  params_ = std::move(other.params_);
  ocv_curve_ = std::move(other.ocv_curve_);
  electrical_ = other.electrical_;
  aging_ = other.aging_;
  thermal_ = other.thermal_;
  lane_params_ = other.lane_params_;
  total_loss_j_ = other.total_loss_j_;
  return *this;
}

Charge Cell::EffectiveCapacity() const {
  return Charge(params_->nominal_capacity.value() * aging_.capacity_factor());
}

Charge Cell::RemainingCharge() const { return Charge(EffectiveCapacity().value() * soc()); }

Energy Cell::RemainingEnergy() const {
  // Integrate OCV(s) ds over [0, soc] scaled by capacity: the chemical
  // energy still extractable ignoring resistive losses.
  double cap = EffectiveCapacity().value();
  double s = soc();
  if (s <= 0.0) {
    return Joules(0.0);
  }
  constexpr int kPanels = 32;
  double sum = 0.0;
  double h = s / kPanels;
  for (int i = 0; i <= kPanels; ++i) {
    double weight = (i == 0 || i == kPanels) ? 0.5 : 1.0;
    sum += weight * params_->ocv_vs_soc.Evaluate(i * h);
  }
  return Joules(sum * h * cap);
}

Power Cell::MaxDischargePower() const {
  // The lower of the electrical max-power point and the current limit.
  double ocv = OpenCircuitVoltage().value();
  double i_max = params_->max_discharge_current.value();
  double r0 = InternalResistance().value();
  double p_limit = (ocv - i_max * r0) * i_max;
  double p_electrical = electrical_.MaxDischargePower().value();
  return Watts(std::max(0.0, std::min(p_limit, p_electrical)));
}

Power Cell::MaxChargePower() const {
  double ocv = OpenCircuitVoltage().value();
  double j_max = params_->max_charge_current.value();
  double r0 = InternalResistance().value();
  return Watts((ocv + j_max * r0) * j_max);
}

void Cell::AdvanceIdle(Duration dt) {
  SDB_CHECK(dt.value() >= 0.0);
  const double seconds_per_month = Days(30.0).value();
  double leak = params_->self_discharge_per_month * dt.value() / seconds_per_month;
  electrical_.set_soc(electrical_.soc() * (1.0 - leak));
  aging_.AdvanceCalendar(dt);
  SyncAging();
}

StepResult Cell::StepDischargePower(Power power, Duration dt) {
  SDB_TRACE_SPAN("chem", "cell.step_discharge_power");
  return RunLaneOp(soa::LaneOp::kDischargePower, power.value(), dt);
}

StepResult Cell::StepDischargeCurrent(Current current, Duration dt) {
  SDB_CHECK(current.value() >= 0.0);
  return RunLaneOp(soa::LaneOp::kDischargeCurrent, current.value(), dt);
}

StepResult Cell::StepChargePower(Power power, Duration dt) {
  SDB_TRACE_SPAN("chem", "cell.step_charge_power");
  return RunLaneOp(soa::LaneOp::kChargePower, power.value(), dt);
}

StepResult Cell::StepChargeCurrent(Current current, Duration dt) {
  SDB_CHECK(current.value() >= 0.0);
  return RunLaneOp(soa::LaneOp::kChargeCurrent, current.value(), dt);
}

soa::RawStepResult Cell::StepLane(soa::LaneOp op, double magnitude, Duration dt) {
  return soa::StepLaneOnce(lane_params_, electrical_.kernel_state(), aging_.kernel_state(),
                           thermal_.kernel_state(), total_loss_j_, op, magnitude, dt.value());
}

StepResult Cell::RunLaneOp(soa::LaneOp op, double magnitude, Duration dt) {
  soa::RawStepResult raw = StepLane(op, magnitude, dt);
  soa::AddCellSteps(1);
  return ToStepResult(raw);
}

void Cell::SyncAging() {
  // DCIR grows with age and with cold: both multiply the fresh curve.
  electrical_.set_resistance_scale(
      aging_.resistance_factor() *
      soa::ColdResistanceMultiplier(params_->cold_resistance_per_k,
                                    thermal_.temperature().value()));
}

soa::LaneState Cell::ExportLaneState() const {
  soa::LaneState state;
  state.electrical = electrical_.kernel_state();
  state.aging = aging_.kernel_state();
  state.thermal = thermal_.kernel_state();
  state.total_loss_j = total_loss_j_;
  return state;
}

void Cell::ImportLaneState(const soa::LaneState& state) {
  electrical_.kernel_state() = state.electrical;
  aging_.kernel_state() = state.aging;
  thermal_.kernel_state() = state.thermal;
  total_loss_j_ = state.total_loss_j;
}

CellStatus Cell::GetStatus() const {
  CellStatus status;
  status.name = params_->name;
  status.soc = soc();
  status.terminal_voltage = electrical_.TerminalVoltageAt(Amps(0.0));
  status.open_circuit_voltage = OpenCircuitVoltage();
  status.internal_resistance = InternalResistance();
  status.effective_capacity = EffectiveCapacity();
  status.capacity_factor = aging_.capacity_factor();
  status.cycle_count = aging_.cycle_count();
  status.wear_ratio = aging_.wear_ratio();
  status.temperature = thermal_.temperature();
  status.total_loss = total_loss();
  return status;
}

}  // namespace sdb
