// Lumped thermal model and the heat-loss accounting behind paper Fig. 1(c).
//
// Resistive losses heat the cell; a single thermal mass with a conductance
// to ambient integrates temperature. The quantity the paper plots —
// "internal heat loss %" at a given discharge C-rate — is the fraction of
// chemical energy dissipated in R0 + R_c at that steady current.
#ifndef SRC_CHEM_THERMAL_H_
#define SRC_CHEM_THERMAL_H_

#include "src/chem/battery_params.h"
#include "src/chem/soa_kernel.h"
#include "src/util/units.h"

namespace sdb {

// Facade over the soa kernel's thermal primitive (soa_kernel.h): Step runs
// the same inline code BatteryPack::StepLanes runs.
class ThermalModel {
 public:
  // heat_capacity: J/K of the cell; thermal_conductance: W/K to ambient.
  ThermalModel(double heat_capacity_j_per_k, double thermal_conductance_w_per_k,
               Temperature ambient);

  // Integrates one step with `heat` joules of resistive dissipation.
  void Step(Energy heat, Duration dt);

  Temperature temperature() const { return Temperature(state_.temp_k); }
  Temperature ambient() const { return Temperature(ambient_k_); }

  double heat_capacity_j_per_k() const { return heat_capacity_; }
  double conductance_w_per_k() const { return conductance_; }

  // Total heat absorbed so far.
  Energy total_heat() const { return Joules(state_.total_heat_j); }

  void ResetTemperature();

  // Test/fault-injection hook: force the cell temperature.
  void set_temperature(Temperature t) { state_.temp_k = t.value(); }

  // SoA-lane access for the Cell facade and its lane-state export (soa_kernel.h).
  soa::ThermalState& kernel_state() { return state_; }
  const soa::ThermalState& kernel_state() const { return state_; }

 private:
  double heat_capacity_;
  double conductance_;
  double ambient_k_;
  soa::ThermalState state_;
};

// Steady-state internal heat-loss percentage when the battery described by
// `params` (at `soc`, 100% health) is drained at `c_rate` — the y-axis of
// paper Figure 1(c). Loss% = I*(R0+Rc)/OCV * 100 at the implied current.
double HeatLossPercentAtCRate(const BatteryParams& params, double c_rate, double soc = 0.5);

}  // namespace sdb

#endif  // SRC_CHEM_THERMAL_H_
