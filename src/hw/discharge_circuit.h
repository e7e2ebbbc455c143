// The SDB discharge circuit (paper §3.2.1, Fig. 4c left): a switched-mode
// regulator restructured to draw energy packets from N batteries in
// weighted round-robin, so a software-set ratio vector controls what
// fraction of the load each battery supplies.
//
// Modeled behaviours, calibrated to the prototype microbenchmarks:
//   * conversion loss ~1% at light load rising to ~1.6% at 10 W (Fig. 6a);
//   * proportion-setting error, worst (~0.55%) at extreme settings and
//     ~0.1% mid-range (Fig. 6b);
//   * spill-over: when a battery cannot meet its share (empty, or at its
//     power limit), the remainder is redistributed across the others.
#ifndef SRC_HW_DISCHARGE_CIRCUIT_H_
#define SRC_HW_DISCHARGE_CIRCUIT_H_

#include <vector>

#include "src/chem/pack.h"
#include "src/chem/soa_kernel.h"
#include "src/hw/regulator.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace sdb {

struct DischargeCircuitConfig {
  // Loss terms calibrated to Fig. 6(a): ~1.0% loss at 0.1-2 W, ~1.6% at 10 W.
  RegulatorConfig regulator{.quiescent = Watts(2.0e-5),
                            .proportional = 0.0097,
                            .series_resistance = Ohms(0.0086),
                            .reverse_penalty = 1.35,
                            .typical_efficiency = 0.96};
  // Proportion error envelope (fraction of the setting): worst at the edges
  // of the [0,1] setting range, best mid-range (Fig. 6b).
  double share_error_mid = 0.0010;
  double share_error_edge = 0.0040;
  // Safety margin kept below a battery's instantaneous max power.
  double power_margin = 0.98;
};

// Mutable circuit state for checkpoint/restore: the proportion-error noise
// stream plus the shortfall journal latch.
struct DischargeCircuitState {
  RngState rng;
  bool shortfall_latched = false;
};

struct DischargeTick {
  Power requested;                  // Load power asked for.
  Power delivered;                  // Power that reached the load.
  Energy circuit_loss;              // Dissipated in the switching circuitry.
  Energy battery_loss;              // Resistive loss inside the batteries.
  std::vector<Current> currents;    // Per battery.
  std::vector<Power> battery_power; // Terminal power drawn per battery.
  std::vector<double> realised_shares;  // After proportion error + spill.
  bool shortfall = false;

  // The tick of a step that drew nothing: sizes the per-battery vectors to
  // `batteries` (allocating only when that changes), writes each entry 0,
  // and zeroes every other field but `requested`.
  void SetIdle(size_t batteries) {
    delivered = Watts(0.0);
    circuit_loss = Joules(0.0);
    battery_loss = Joules(0.0);
    currents.resize(batteries);
    battery_power.resize(batteries);
    realised_shares.resize(batteries);
    for (size_t i = 0; i < batteries; ++i) {
      currents[i] = Amps(0.0);
      battery_power[i] = Watts(0.0);
      realised_shares[i] = 0.0;
    }
    shortfall = false;
  }
};

class SdbDischargeCircuit {
 public:
  SdbDischargeCircuit(DischargeCircuitConfig config, uint64_t seed);

  // Draws `load` from `pack` split by `shares` (non-negative, summing to 1
  // over the pack size) for one tick. Shares of unavailable batteries spill
  // to the rest; if the whole pack cannot meet the load, delivers what it
  // can and flags a shortfall. Writes every field of `*tick`, sizing its
  // per-battery vectors to the pack only when that size changes.
  void Step(BatteryPack& pack, const std::vector<double>& shares, Power load, Duration dt,
            DischargeTick* tick);

  // A tick with no load: writes an idle `*tick` and ends any shortfall
  // episode, so the next shortfall is journaled again. Step takes this path
  // for a non-positive load, and the microcontroller calls it directly on a
  // tick where the pack carries no load.
  void StepIdle(size_t batteries, DischargeTick* tick) {
    tick->SetIdle(batteries);
    JournalShortfallEdge(false, Watts(0.0), Watts(0.0));
  }

  // The same step into a tick owned by the circuit, valid until the next
  // Step.
  const DischargeTick& Step(BatteryPack& pack, const std::vector<double>& shares, Power load,
                            Duration dt) {
    Step(pack, shares, load, dt, &tick_);
    return tick_;
  }

  // The proportion error applied to a given setting (deterministic part of
  // the Fig. 6b envelope); exposed for the microbenchmark.
  double ShareErrorEnvelope(double setting) const;

  // Circuit loss moving `load` at the pack bus voltage (Fig. 6a).
  Power CircuitLossAt(Power load, Voltage bus) const;

  const DischargeCircuitConfig& config() const { return config_; }

  DischargeCircuitState SaveState() const;
  void RestoreState(const DischargeCircuitState& state);

 private:
  // Terminal power `cell` can deliver in this tick at no-load voltage `e`
  // (0 for an empty or disconnected battery).
  Power AvailablePower(const Cell& cell, double e, Duration dt) const;

  // Journals the shortfall rising edge (kCircuitEvent) and tracks the latch
  // so a sustained shortfall produces one event, not one per tick. Inline:
  // every Step takes it, and only the rising edge leaves the fast path.
  void JournalShortfallEdge(bool shortfall, Power load, Power delivered) {
    if (shortfall && !shortfall_latched_) {
      JournalShortfall(load, delivered);
    }
    shortfall_latched_ = shortfall;
  }
  void JournalShortfall(Power load, Power delivered);

  DischargeCircuitConfig config_;
  RegulatorModel regulator_;
  Rng rng_;
  bool shortfall_latched_ = false;

  // Output tick of the tick-owning Step, and per-battery scratch reused so
  // a steady-state Step allocates nothing. realised_ holds the shares after
  // the proportion error, before they are normalised.
  DischargeTick tick_;
  std::vector<double> no_load_v_;
  std::vector<double> realised_;
  std::vector<double> avail_;
  std::vector<double> request_;
  std::vector<soa::LaneRequest> lane_requests_;
};

}  // namespace sdb

#endif  // SRC_HW_DISCHARGE_CIRCUIT_H_
