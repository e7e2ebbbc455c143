// Structure-of-arrays kernel for the chem hot path.
//
// Every electro-chemical update in the repo funnels through the inline
// primitives below: the Thevenin electrical step, the cycle-counting aging
// update and the lumped thermal update all operate on raw doubles held in
// small per-subsystem state bundles. `chem::Cell` (and `TheveninModel` /
// `AgingModel` / `ThermalModel`) are thin facades that call the same
// primitives on their own single-lane state, and `BatteryPack::StepLanes`
// steps a whole pack per tick by running StepLaneOnce on each cell's state
// in place. One implementation serves every caller, so their outputs are
// bit-identical by construction (see DESIGN.md §12), which is what keeps
// every golden pinned.
//
// Two deliberate micro-optimisations, both bit-exact:
//   * curve lookups use PiecewiseLinearCurve::EvaluateHinted with per-lane
//     segment hints (the segment is unique, so hit or miss yields the same
//     double);
//   * the RC and thermal exponential decay factors exp(-dt/tau) are
//     memoized per lane keyed on dt (tau is a per-cell constant), so the
//     cached value is exactly the double std::exp returned for those inputs.
#ifndef SRC_CHEM_SOA_KERNEL_H_
#define SRC_CHEM_SOA_KERNEL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/chem/battery_params.h"
#include "src/util/check.h"
#include "src/util/curve.h"
#include "src/util/numeric.h"

namespace sdb {
namespace soa {

// Below this health the battery is end-of-life; fade stops compounding
// (shared with AgingModel::AdvanceCalendar).
inline constexpr double kMinCapacityFactor = 0.05;
// Paper §5.1: the cumulative charge counter trips at 80% of current capacity.
inline constexpr double kCycleThresholdFraction = 0.8;

// --- Per-subsystem state bundles -------------------------------------------
// These are the dynamic doubles of one lane (= one cell). The facade models
// own one bundle each.

struct ElectricalState {
  double soc = 0.0;
  double v_rc_v = 0.0;             // RC (concentration) element voltage.
  double resistance_scale = 1.0;   // Aging x cold multiplier on fresh DCIR.
  // Segment hints for the OCV/DCIR curve lookups (stale values are safe).
  uint32_t ocv_hint = 0;
  uint32_t dcir_hint = 0;
  // Memoized exp(-dt / (R_c * C_p)) keyed on dt (tau is per-cell constant).
  double rc_decay_dt_s = 0.0;
  double rc_decay = 0.0;
  // Memoized OCV lookup keyed on the exact SoC it was evaluated at: a
  // step's starting OCV is the previous step's ending OCV, so the cache
  // hits every consecutive step. The curve is fixed for the lane's
  // lifetime, so the cache stays valid however soc changes (-1 never
  // matches a real SoC, which keeps the initial cache empty).
  double ocv_x = -1.0;
  double ocv_cache = 0.0;
};

struct AgingState {
  double capacity_factor = 1.0;
  double cycle_count = 0.0;
  double cumulative_charge_c = 0.0;  // Toward the next 80% threshold.
  // Charge-weighted current accumulator for the in-progress cycle.
  double weighted_current_sum = 0.0;
  double weighted_charge_sum = 0.0;
  double total_charge_in_c = 0.0;
  double total_charge_out_c = 0.0;
};

struct ThermalState {
  double temp_k = 0.0;
  double total_heat_j = 0.0;
  // Memoized exp(-dt / (C / G)) keyed on dt.
  double decay_dt_s = 0.0;
  double decay = 0.0;
};

// --- Per-subsystem parameter views -----------------------------------------
// Read-only unpacked parameters; built once per cell (the curves stay
// pointers into the cell's BatteryParams, whose address is stable).

struct ElectricalParamsView {
  const PiecewiseLinearCurve* ocv_curve = nullptr;
  const PiecewiseLinearCurve* dcir_curve = nullptr;
  double r_c_ohm = 0.0;  // Concentration resistance.
  double c_p_f = 0.0;    // Plate capacitance.
  double i_max_a = 0.0;  // Datasheet discharge current limit.
  double j_max_a = 0.0;  // Datasheet charge current limit.
};

struct AgingParamsView {
  double nominal_capacity_c = 0.0;
  double base_fade_per_cycle = 0.0;
  double fade_current_stress = 0.0;
  double fade_reference_current_a = 0.0;
  double resistance_growth = 0.0;
};

struct ThermalParamsView {
  double heat_capacity_j_per_k = 0.0;
  double conductance_w_per_k = 0.0;
  double ambient_k = 0.0;
};

// Everything StepLaneOnce needs to know about one cell.
struct LaneParams {
  ElectricalParamsView electrical;
  AgingParamsView aging;
  ThermalParamsView thermal;
  double cold_resistance_per_k = 0.0;
};

// Full dynamic state of one lane, copied out of and back into a Cell by
// Cell::ExportLaneState / ImportLaneState (the micro checkpoint uses them).
struct LaneState {
  ElectricalState electrical;
  AgingState aging;
  ThermalState thermal;
  double total_loss_j = 0.0;
};

// Raw-double mirror of StepResult (thevenin.h owns the typed version and
// the ToStepResult converter).
struct RawStepResult {
  double current_a = 0.0;
  double terminal_v = 0.0;
  double energy_terminals_j = 0.0;
  double energy_chemical_j = 0.0;
  double energy_lost_j = 0.0;
  bool limited = false;
};

// What a lane is asked to do this step. kIdle lanes are untouched — exactly
// like the scalar circuits, which never step a cell that was allocated
// nothing (or is disconnected by an open-circuit fault).
enum class LaneOp : uint8_t {
  kIdle = 0,
  kDischargePower,    // magnitude = watts at the terminals.
  kDischargeCurrent,  // magnitude = amps (clamped to the datasheet limit).
  kChargePower,       // magnitude = watts absorbed at the terminals.
  kChargeCurrent,     // magnitude = amps (clamped to the datasheet limit).
};

struct LaneRequest {
  LaneOp op = LaneOp::kIdle;
  double magnitude = 0.0;
};

// --- Parameter-view builders ------------------------------------------------

inline ElectricalParamsView MakeElectricalParamsView(const BatteryParams& params) {
  ElectricalParamsView view;
  view.ocv_curve = &params.ocv_vs_soc;
  view.dcir_curve = &params.dcir_vs_soc;
  view.r_c_ohm = params.concentration_resistance.value();
  view.c_p_f = params.plate_capacitance.value();
  view.i_max_a = params.max_discharge_current.value();
  view.j_max_a = params.max_charge_current.value();
  return view;
}

inline AgingParamsView MakeAgingParamsView(const BatteryParams& params) {
  AgingParamsView view;
  view.nominal_capacity_c = params.nominal_capacity.value();
  view.base_fade_per_cycle = params.base_fade_per_cycle;
  view.fade_current_stress = params.fade_current_stress;
  view.fade_reference_current_a = params.fade_reference_current.value();
  view.resistance_growth = params.resistance_growth;
  return view;
}

inline LaneParams MakeLaneParams(const BatteryParams& params, double heat_capacity_j_per_k,
                                 double conductance_w_per_k, double ambient_k) {
  LaneParams lane;
  lane.electrical = MakeElectricalParamsView(params);
  lane.aging = MakeAgingParamsView(params);
  lane.thermal.heat_capacity_j_per_k = heat_capacity_j_per_k;
  lane.thermal.conductance_w_per_k = conductance_w_per_k;
  lane.thermal.ambient_k = ambient_k;
  lane.cold_resistance_per_k = params.cold_resistance_per_k;
  return lane;
}

// --- Electrical primitives ---------------------------------------------------

// Memoized exp(-dt_s / tau): recomputes only when dt changes, returning the
// exact cached double otherwise.
inline double DecayFactor(double dt_s, double tau, double* cached_dt_s, double* cached) {
  if (dt_s != *cached_dt_s) {
    *cached_dt_s = dt_s;
    *cached = std::exp(-dt_s / tau);
  }
  return *cached;
}

// Integration core of TheveninModel::Integrate, bit for bit. `ocv_start`
// and `r0` are the curve values at the starting SoC (the callers already
// need them to pick the current, so they are passed in rather than
// re-evaluated — evaluating them again would give the identical doubles).
inline RawStepResult ElectricalIntegrate(const ElectricalParamsView& p, ElectricalState& s,
                                         double current_a, double dt_s, double capacity_c,
                                         double ocv_start, double r0) {
  SDB_DCHECK(dt_s > 0.0);
  SDB_DCHECK(capacity_c > 0.0);
  RawStepResult result;

  // Clamp so SoC stays within [0, 1] over the step. Fast path: when the
  // charge moved this step is strictly inside both SoC bounds with a 1%
  // margin (orders of magnitude beyond rounding error), the clamp is
  // provably the identity, so the two bound divisions are skipped. Only
  // near-empty/near-full lanes pay for the exact bounds.
  double discharge_room_c = s.soc * capacity_c;
  double charge_room_c = (1.0 - s.soc) * capacity_c;
  double moved_c = current_a * dt_s;
  if (!(moved_c < 0.99 * discharge_room_c && -moved_c < 0.99 * charge_room_c)) {
    double max_discharge_a = discharge_room_c / dt_s;
    double max_charge_a = charge_room_c / dt_s;
    double clamped = Clamp(current_a, -max_charge_a, max_discharge_a);
    if (clamped != current_a) {
      result.limited = true;
    }
    current_a = clamped;
  }

  double v_rc_start = s.v_rc_v;

  // Exact update of the RC branch for constant current over the step.
  if (p.r_c_ohm > 0.0) {
    double v_inf = current_a * p.r_c_ohm;
    double tau = p.r_c_ohm * p.c_p_f;
    double decay = DecayFactor(dt_s, tau, &s.rc_decay_dt_s, &s.rc_decay);
    s.v_rc_v = v_inf + (v_rc_start - v_inf) * decay;
  } else {
    s.v_rc_v = 0.0;
  }

  s.soc = Clamp(s.soc - current_a * dt_s / capacity_c, 0.0, 1.0);

  double ocv_end = p.ocv_curve->EvaluateHinted(s.soc, &s.ocv_hint);
  s.ocv_x = s.soc;
  s.ocv_cache = ocv_end;
  double ocv_avg = 0.5 * (ocv_start + ocv_end);
  double v_rc_avg = 0.5 * (v_rc_start + s.v_rc_v);

  double e_chem = ocv_avg * current_a * dt_s;
  double e_loss = current_a * current_a * r0 * dt_s + current_a * v_rc_avg * dt_s;
  result.current_a = current_a;
  result.terminal_v = ocv_end - current_a * r0 - s.v_rc_v;
  result.energy_chemical_j = e_chem;
  result.energy_lost_j = e_loss;
  result.energy_terminals_j = e_chem - e_loss;
  return result;
}

// Current selection + integration for one electrical step. Mirrors
// TheveninModel::StepWithDischargePower / StepWithChargePower and the
// datasheet-limit clamps of Cell::Step{Discharge,Charge}Current.
inline RawStepResult ElectricalStep(const ElectricalParamsView& p, ElectricalState& s, LaneOp op,
                                    double magnitude, double dt_s, double capacity_c) {
  double ocv0 = (s.soc == s.ocv_x) ? s.ocv_cache
                                   : p.ocv_curve->EvaluateHinted(s.soc, &s.ocv_hint);
  double r0 = s.resistance_scale * p.dcir_curve->EvaluateHinted(s.soc, &s.dcir_hint);
  double current_a = 0.0;
  bool limited = false;
  switch (op) {
    case LaneOp::kDischargePower: {
      SDB_DCHECK(magnitude >= 0.0);
      double e = ocv0 - s.v_rc_v;
      if (e <= 0.0) {
        current_a = 0.0;
        limited = magnitude > 0.0;
      } else {
        // Stable branch of R0*I^2 - E*I + P = 0 (the smaller root).
        QuadraticRoots roots = SolveQuadratic(r0, -e, magnitude);
        if (roots.count == 0) {
          // Request exceeds the max-power point; deliver the most we can.
          current_a = e / (2.0 * r0);
          limited = true;
        } else {
          current_a = roots.lo;
        }
      }
      if (current_a > p.i_max_a) {
        current_a = p.i_max_a;
        limited = true;
      }
      break;
    }
    case LaneOp::kDischargeCurrent: {
      SDB_DCHECK(magnitude >= 0.0);
      current_a = std::min(magnitude, p.i_max_a);
      break;
    }
    case LaneOp::kChargePower: {
      SDB_DCHECK(magnitude >= 0.0);
      double e = ocv0 - s.v_rc_v;
      // Absorbed power P = (E + R0*J) * J for charge current J = -I > 0.
      QuadraticRoots roots = SolveQuadratic(r0, e, -magnitude);
      double j = roots.count > 0 ? std::max(roots.hi, 0.0) : 0.0;
      if (j > p.j_max_a) {
        j = p.j_max_a;
        limited = true;
      }
      current_a = -j;
      break;
    }
    case LaneOp::kChargeCurrent: {
      SDB_DCHECK(magnitude >= 0.0);
      current_a = -std::min(magnitude, p.j_max_a);
      break;
    }
    case LaneOp::kIdle:
      SDB_DCHECK(false);
      return RawStepResult{};
  }
  RawStepResult result = ElectricalIntegrate(p, s, current_a, dt_s, capacity_c, ocv0, r0);
  result.limited = result.limited || limited;
  return result;
}

// --- Aging primitives --------------------------------------------------------

inline double AgingResistanceFactor(const AgingParamsView& p, const AgingState& s) {
  return 1.0 + p.resistance_growth * (1.0 - s.capacity_factor);
}

// AgingModel::RecordCharge, bit for bit (including ApplyCycleFade).
inline void AgingRecordCharge(const AgingParamsView& p, AgingState& s, double dose_c,
                              double current_a) {
  double dose = dose_c;
  SDB_DCHECK(dose >= 0.0);
  s.total_charge_in_c += dose;
  double i_a = std::fabs(current_a);

  while (dose > 0.0) {
    double threshold = kCycleThresholdFraction * p.nominal_capacity_c * s.capacity_factor;
    double room = threshold - s.cumulative_charge_c;
    double step = std::min(dose, room);
    s.cumulative_charge_c += step;
    s.weighted_current_sum += i_a * step;
    s.weighted_charge_sum += step;
    dose -= step;
    if (s.cumulative_charge_c >= threshold) {
      double avg_current =
          s.weighted_charge_sum > 0.0 ? s.weighted_current_sum / s.weighted_charge_sum : i_a;
      double ratio = avg_current / p.fade_reference_current_a;
      double fade = p.base_fade_per_cycle * (1.0 + p.fade_current_stress * ratio * ratio);
      s.capacity_factor = std::max(kMinCapacityFactor, s.capacity_factor - fade);
      s.cycle_count += 1.0;
      s.cumulative_charge_c = 0.0;
      s.weighted_current_sum = 0.0;
      s.weighted_charge_sum = 0.0;
    }
  }
}

inline void AgingRecordDischarge(AgingState& s, double dose_c) {
  SDB_DCHECK(dose_c >= 0.0);
  s.total_charge_out_c += dose_c;
}

// --- Thermal primitives ------------------------------------------------------

// ThermalModel::Step, bit for bit (with the decay factor memoized).
inline void ThermalStep(const ThermalParamsView& p, ThermalState& s, double heat_j, double dt_s) {
  SDB_DCHECK(dt_s > 0.0);
  if (heat_j > 0.0) {
    s.total_heat_j += heat_j;
  }
  // Exact solution of C dT/dt = P_heat - G (T - T_amb) for constant P_heat.
  double p_heat = heat_j / dt_s;
  if (p.conductance_w_per_k > 0.0) {
    double t_inf = p.ambient_k + p_heat / p.conductance_w_per_k;
    double tau = p.heat_capacity_j_per_k / p.conductance_w_per_k;
    double decay = DecayFactor(dt_s, tau, &s.decay_dt_s, &s.decay);
    s.temp_k = t_inf + (s.temp_k - t_inf) * decay;
  } else {
    s.temp_k += heat_j / p.heat_capacity_j_per_k;
  }
}

// Cell::SyncAging's cold multiplier: DCIR grows with age and with cold.
inline double ColdResistanceMultiplier(double cold_resistance_per_k, double temp_k) {
  double cold = 1.0;
  double below_25 = 298.15 - temp_k;
  if (below_25 > 0.0) {
    cold += cold_resistance_per_k * below_25;
  }
  return cold;
}

// --- The full per-lane step --------------------------------------------------

// One complete cell step: SyncAging, electrical integration, then the
// aging/thermal/loss accounting — the exact op sequence of
// Cell::Step{Discharge,Charge}{Power,Current}. The Cell facade and
// BatteryPack::StepLanes both run THIS function, which is the bit-identity
// invariant the differential suite pins.
inline RawStepResult StepLaneOnce(const LaneParams& p, ElectricalState& es, AgingState& as,
                                  ThermalState& ts, double& total_loss_j, LaneOp op,
                                  double magnitude, double dt_s) {
  es.resistance_scale = AgingResistanceFactor(p.aging, as) *
                        ColdResistanceMultiplier(p.cold_resistance_per_k, ts.temp_k);
  double capacity_c = p.aging.nominal_capacity_c * as.capacity_factor;
  RawStepResult result = ElectricalStep(p.electrical, es, op, magnitude, dt_s, capacity_c);

  // Account(): throughput into aging, loss into the ledger and the thermal
  // mass, then re-sync the resistance multiplier.
  double i = result.current_a;
  double moved_c = std::fabs(i) * dt_s;
  if (i < 0.0) {
    AgingRecordCharge(p.aging, as, moved_c, std::fabs(i));
  } else if (i > 0.0) {
    AgingRecordDischarge(as, moved_c);
  }
  total_loss_j += result.energy_lost_j;
  ThermalStep(p.thermal, ts, std::max(0.0, result.energy_lost_j), dt_s);
  es.resistance_scale = AgingResistanceFactor(p.aging, as) *
                        ColdResistanceMultiplier(p.cold_resistance_per_k, ts.temp_k);
  return result;
}

// --- Accounting -------------------------------------------------------------

// Total cell-steps executed process-wide, mirrored in the obs counter
// "sdb.chem.cell_steps". Relaxed; concurrent sweeps both count.
uint64_t TotalCellSteps();
// Internal: called by the facade (n=1) and StepLanes (n=lanes stepped).
void AddCellSteps(uint64_t n);

}  // namespace soa
}  // namespace sdb

#endif  // SRC_CHEM_SOA_KERNEL_H_
