// The paper's battery model (Fig. 8a): a Thevenin equivalent circuit with
// four learned quantities — open-circuit potential OCV(SoC), internal
// resistance R0(SoC), concentration resistance R_c and plate capacitance
// C_p. Terminal voltage under load current I (discharge positive):
//
//   V_term = OCV(SoC) - I * R0(SoC) - V_rc
//   dV_rc/dt = (I - V_rc / R_c) / C_p
//
// The model integrates SoC by coulomb counting and supports both
// current-specified and power-specified steps (the latter solves the load
// quadratic; see DESIGN.md §5).
#ifndef SRC_CHEM_THEVENIN_H_
#define SRC_CHEM_THEVENIN_H_

#include <cstdint>
#include <limits>

#include "src/chem/battery_params.h"
#include "src/chem/soa_kernel.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// Outcome of one integration step.
struct StepResult {
  Current current;          // Actual current (discharge positive, charge negative).
  Voltage terminal_voltage; // At end of step.
  Energy energy_at_terminals;  // Delivered to (discharge, +) or absorbed from (charge, -) load.
  Energy energy_chemical;      // Removed from (+) or stored into (-) the chemistry.
  Energy energy_lost;          // Resistive heat (momentarily negative only while the
                               // RC element returns transient stored energy).
  bool limited = false;        // True if the request was clamped (empty/full/over-power).
};

// Wraps a kernel-layer result in the typed StepResult the rest of the repo
// consumes. Pure re-labelling; the doubles pass through untouched.
inline StepResult ToStepResult(const soa::RawStepResult& raw) {
  StepResult result;
  result.current = Amps(raw.current_a);
  result.terminal_voltage = Volts(raw.terminal_v);
  result.energy_at_terminals = Joules(raw.energy_terminals_j);
  result.energy_chemical = Joules(raw.energy_chemical_j);
  result.energy_lost = Joules(raw.energy_lost_j);
  result.limited = raw.limited;
  return result;
}

// Dynamic electrical state of one cell. Aging is layered on top by
// sdb::Cell; this class treats capacity as externally supplied so the same
// solver serves both fresh and degraded cells. The step methods are a
// single-lane facade over the soa kernel primitives (soa_kernel.h), so this
// class and BatteryPack::StepLanes produce bit-identical state.
//
// The curve accessors (OpenCircuitVoltage, InternalResistance and everything
// built on them) share a private memo of the OCV and fresh-DCIR curve values
// keyed on the exact SoC they were evaluated at (DESIGN.md §12, "Tick hot
// path"). The memo is derived, not state: it is never exported, encoded or
// compared, and any write to the SoC invalidates it. Because const accessors
// fill it, one model (and so one Cell) is not safe for concurrent readers.
class TheveninModel {
 public:
  // `params` must outlive the model and be valid (see BatteryParams::Validate).
  TheveninModel(const BatteryParams* params, double initial_soc);

  // State of charge in [0, 1].
  double soc() const { return state_.soc; }
  void set_soc(double soc);

  // Multiplier (>= 1) applied to the fresh DCIR curve; set by the aging
  // layer as capacity fades.
  double resistance_scale() const { return state_.resistance_scale; }
  void set_resistance_scale(double scale);

  // Voltage across the RC (concentration) element.
  Voltage rc_voltage() const { return Voltage(state_.v_rc_v); }

  // OCV(SoC) and resistance_scale * DCIR(SoC), read through the curve memo.
  // Inline so the per-tick callers in hw pay only the key compare on a hit.
  Voltage OpenCircuitVoltage() const {
    RefreshCurveMemo();
    return memo_ocv_;
  }
  Resistance InternalResistance() const {
    RefreshCurveMemo();
    return Ohms(state_.resistance_scale * memo_dcir_.value());
  }

  // d(DCIR)/d(SoC) at the current SoC — the delta_i of the RBL algorithms.
  double DcirSlope() const;

  // Terminal voltage if `current` were applied right now (no state change).
  Voltage TerminalVoltageAt(Current current) const {
    double v = OpenCircuitVoltage().value() - current.value() * InternalResistance().value() -
               state_.v_rc_v;
    return Volts(v);
  }

  // Maximum instantaneous power the cell can source given OCV, V_rc and R0
  // (the peak of the P(I) parabola), ignoring the current limit.
  Power MaxDischargePower() const;

  // Integrates one step at fixed current. Positive current discharges.
  // The request is clamped when the cell would leave [0,1] SoC; the result
  // reports the realised current/energies. `capacity` is the cell's current
  // (possibly faded) full-charge capacity.
  StepResult StepWithCurrent(Current current, Duration dt, Charge capacity);

  // Integrates one step delivering `power` at the terminals (discharge).
  // Clamps to MaxDischargePower and to the params' discharge current limit.
  StepResult StepWithDischargePower(Power power, Duration dt, Charge capacity);

  // Integrates one step absorbing `power` at the terminals (charge).
  // Clamps to the params' charge current limit and to 100% SoC.
  StepResult StepWithChargePower(Power power, Duration dt, Charge capacity);

  const BatteryParams& params() const { return *params_; }

  // SoA-lane access for the Cell facade and its lane-state export (soa_kernel.h).
  soa::ElectricalState& kernel_state() { return state_; }
  const soa::ElectricalState& kernel_state() const { return state_; }

 private:
  // Re-evaluates both curves at the current SoC unless the memo already
  // holds that exact SoC. Exact-key compare: equal SoC doubles evaluate to
  // the same curve values (+0.0 and -0.0 both clamp to the first point), so
  // a hit returns exactly what a fresh Evaluate would. A NaN key or SoC
  // never compares equal, so it always re-evaluates.
  void RefreshCurveMemo() const {
    if (memo_soc_ != state_.soc) {
      EvaluateCurveMemo();
    }
  }
  void EvaluateCurveMemo() const;

  const BatteryParams* params_;
  soa::ElectricalState state_;

  // Curve memo. The key starts as NaN, which never compares equal, so the
  // first read always evaluates. The hints are the memo's own (the
  // checkpointed ones in state_ belong to the kernel step).
  mutable double memo_soc_ = std::numeric_limits<double>::quiet_NaN();
  mutable Voltage memo_ocv_;
  mutable Resistance memo_dcir_;  // Fresh curve value, before resistance_scale.
  mutable uint32_t memo_ocv_hint_ = 0;
  mutable uint32_t memo_dcir_hint_ = 0;
};

}  // namespace sdb

#endif  // SRC_CHEM_THEVENIN_H_
