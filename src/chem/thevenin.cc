#include "src/chem/thevenin.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

TheveninModel::TheveninModel(const BatteryParams* params, double initial_soc) : params_(params) {
  SDB_CHECK(params_ != nullptr);
  state_.soc = Clamp(initial_soc, 0.0, 1.0);
}

void TheveninModel::set_soc(double soc) { state_.soc = Clamp(soc, 0.0, 1.0); }

void TheveninModel::set_resistance_scale(double scale) {
  SDB_CHECK(scale > 0.0);
  state_.resistance_scale = scale;
}

void TheveninModel::EvaluateCurveMemo() const {
  memo_soc_ = state_.soc;
  memo_ocv_ = Volts(params_->ocv_vs_soc.EvaluateHinted(state_.soc, &memo_ocv_hint_));
  memo_dcir_ = Ohms(params_->dcir_vs_soc.EvaluateHinted(state_.soc, &memo_dcir_hint_));
}

double TheveninModel::DcirSlope() const {
  return state_.resistance_scale * params_->dcir_vs_soc.Derivative(state_.soc);
}

Power TheveninModel::MaxDischargePower() const {
  // P(I) = (E - R0*I) * I peaks at I = E / (2 R0) with P_max = E^2 / (4 R0).
  double e = OpenCircuitVoltage().value() - state_.v_rc_v;
  double r0 = InternalResistance().value();
  if (e <= 0.0) {
    return Watts(0.0);
  }
  return Watts(e * e / (4.0 * r0));
}

StepResult TheveninModel::StepWithCurrent(Current current, Duration dt, Charge capacity) {
  soa::ElectricalParamsView view = soa::MakeElectricalParamsView(*params_);
  double ocv0 = view.ocv_curve->EvaluateHinted(state_.soc, &state_.ocv_hint);
  double r0 = state_.resistance_scale * view.dcir_curve->EvaluateHinted(state_.soc,
                                                                        &state_.dcir_hint);
  return ToStepResult(soa::ElectricalIntegrate(view, state_, current.value(), dt.value(),
                                               capacity.value(), ocv0, r0));
}

StepResult TheveninModel::StepWithDischargePower(Power power, Duration dt, Charge capacity) {
  SDB_DCHECK(power.value() >= 0.0);
  return ToStepResult(soa::ElectricalStep(soa::MakeElectricalParamsView(*params_), state_,
                                          soa::LaneOp::kDischargePower, power.value(), dt.value(),
                                          capacity.value()));
}

StepResult TheveninModel::StepWithChargePower(Power power, Duration dt, Charge capacity) {
  SDB_DCHECK(power.value() >= 0.0);
  return ToStepResult(soa::ElectricalStep(soa::MakeElectricalParamsView(*params_), state_,
                                          soa::LaneOp::kChargePower, power.value(), dt.value(),
                                          capacity.value()));
}

}  // namespace sdb
