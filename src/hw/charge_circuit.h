// The SDB charging circuit (paper §3.2.2, Fig. 4c right): one synchronous
// reversible buck regulator per battery — O(N) instead of the naive O(N^2)
// regulator mesh — supporting:
//   * proportional charging of all batteries from an external supply,
//   * per-battery dynamic charge profiles (selected by the microcontroller),
//   * battery-to-battery transfer by running the source's regulator in
//     reverse-buck mode and the sink's in buck mode.
//
// Loss and setpoint-accuracy behaviour is calibrated to the prototype
// microbenchmarks: ~94-99% of the charger chip's typical efficiency across
// 0.8-2.2 A (Fig. 6c) and <= 0.5% charge-current setpoint error (Fig. 6d).
#ifndef SRC_HW_CHARGE_CIRCUIT_H_
#define SRC_HW_CHARGE_CIRCUIT_H_

#include <vector>

#include "src/chem/pack.h"
#include "src/chem/soa_kernel.h"
#include "src/hw/charge_profile.h"
#include "src/hw/regulator.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace sdb {

struct ChargeCircuitConfig {
  // Loss terms calibrated to Fig. 6(c): ~100% of typical efficiency at
  // 0.8 A falling to ~94% at 2.2 A.
  RegulatorConfig regulator{.quiescent = Watts(0.008),
                            .proportional = 0.006,
                            .series_resistance = Ohms(0.15),
                            .reverse_penalty = 1.35,
                            .typical_efficiency = 0.97};
  // Charge-current setpoint error bounds (fraction of setpoint, Fig. 6d):
  // worst at very low currents where the sense resistor signal is small.
  double setpoint_error_high_current = 0.0008;
  double setpoint_error_low_current = 0.0050;
  Current low_current_knee = Amps(0.5);
  // Battery-to-battery transfers run over the charger's input rail (the
  // "power in" node of Fig. 4c), which sits well above cell voltage, so the
  // regulator stages see proportionally less current.
  Voltage transfer_rail = Volts(6.0);
};

// Mutable circuit state for checkpoint/restore: the setpoint-error noise
// stream and the per-battery profile selections.
struct ChargeCircuitState {
  RngState rng;
  std::vector<uint64_t> selected_profiles;  // One index per battery.
};

struct ChargeTick {
  Power supply_offered;            // External power made available.
  Power absorbed;                  // Total power into battery terminals.
  Power supply_used;               // Drawn from the external source.
  Energy circuit_loss;             // Regulator losses.
  Energy battery_loss;             // Resistive losses inside batteries.
  std::vector<Current> currents;   // Per battery (negative = charging).
  bool any_charging = false;

  // The tick of a step that charged nothing: sizes `currents` to
  // `batteries` (allocating only when that changes), writes each entry 0,
  // and zeroes every other field but `supply_offered`.
  void SetIdle(size_t batteries) {
    absorbed = Watts(0.0);
    supply_used = Watts(0.0);
    circuit_loss = Joules(0.0);
    battery_loss = Joules(0.0);
    currents.resize(batteries);
    for (size_t i = 0; i < batteries; ++i) {
      currents[i] = Amps(0.0);
    }
    any_charging = false;
  }
};

struct TransferTick {
  Energy moved;          // Into the destination battery's terminals.
  Energy drawn;          // Out of the source battery's terminals.
  Energy circuit_loss;   // Two regulator stages.
  Energy battery_loss;   // Source + destination internal losses.
  bool source_exhausted = false;
  bool destination_full = false;
};

class SdbChargeCircuit {
 public:
  // Builds one regulator stage + profile bank (standard, gentle) per cell of
  // `pack_size` batteries described by `params`.
  SdbChargeCircuit(ChargeCircuitConfig config, const std::vector<const BatteryParams*>& params,
                   uint64_t seed);

  size_t battery_count() const { return banks_.size(); }

  // Charge-profile selection (paper Fig. 4 "charging profile select").
  Status SelectProfile(size_t battery, size_t profile_index);
  const ChargeProfileBank& bank(size_t battery) const;

  // Splits `supply` across the pack in proportion to `shares`, each battery
  // limited by its selected charge profile; surplus spills to batteries that
  // still accept charge. Writes what actually happened into every field of
  // `*tick`, sizing `currents` to the pack only when that size changes.
  void Step(BatteryPack& pack, const std::vector<double>& shares, Power supply, Duration dt,
            ChargeTick* tick);

  // The same step into a tick owned by the circuit, valid until the next
  // Step.
  const ChargeTick& Step(BatteryPack& pack, const std::vector<double>& shares, Power supply,
                         Duration dt) {
    Step(pack, shares, supply, dt, &tick_);
    return tick_;
  }

  // Moves `power` from battery `from` to battery `to` for one tick
  // (ChargeOneFromAnother's per-tick workhorse).
  TransferTick StepTransfer(BatteryPack& pack, size_t from, size_t to, Power power, Duration dt);

  // The setpoint error envelope at a commanded current (Fig. 6d).
  double SetpointErrorEnvelope(Current setpoint) const;

  // End-to-end charging efficiency as a fraction of the chip's datasheet
  // "typical" value (Fig. 6c's y-axis).
  double EfficiencyVsTypical(Current charge_current, Voltage bus) const;

  const ChargeCircuitConfig& config() const { return config_; }

  ChargeCircuitState SaveState() const;
  // Restore aborts (SDB_CHECK) when the battery count disagrees; profile
  // indices are validated through the banks' own Select.
  Status RestoreState(const ChargeCircuitState& state);

 private:
  ChargeCircuitConfig config_;
  RegulatorModel regulator_;
  std::vector<ChargeProfileBank> banks_;
  Rng rng_;

  // Output tick of the tick-owning Step, and per-battery scratch reused so
  // a steady-state Step allocates nothing.
  ChargeTick tick_;
  std::vector<double> supply_cap_;
  std::vector<double> alloc_;
  std::vector<double> bus_v_;
  std::vector<soa::LaneRequest> lane_requests_;
};

}  // namespace sdb

#endif  // SRC_HW_CHARGE_CIRCUIT_H_
