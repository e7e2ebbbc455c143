// The SDB microcontroller (paper §3, Fig. 3): the hardware-side endpoint of
// the four OS-facing APIs. Mechanism only — all policy lives in the
// OS-resident SDB Runtime (src/core), exactly the split the paper argues
// for: "we only implement the mechanisms in hardware, and all policies are
// managed and set by the OS."
//
// APIs (paper §3.3):
//   Charge(c1..cN)                  -> SetChargeRatios
//   Discharge(d1..dN)               -> SetDischargeRatios
//   ChargeOneFromAnother(X,Y,W,T)   -> ChargeOneFromAnother
//   QueryBatteryStatus()            -> QueryBatteryStatus
#ifndef SRC_HW_MICROCONTROLLER_H_
#define SRC_HW_MICROCONTROLLER_H_

#include <optional>
#include <vector>

#include "src/chem/pack.h"
#include "src/hw/charge_circuit.h"
#include "src/hw/discharge_circuit.h"
#include "src/hw/fault.h"
#include "src/hw/fuel_gauge.h"
#include "src/hw/safety.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// What QueryBatteryStatus returns per battery — the paper lists state of
// charge, terminal voltage and cycle count; we add the capacity estimate the
// gauge derives. These are gauge *estimates*, not emulator ground truth.
struct BatteryStatus {
  double soc = 0.0;
  Voltage terminal_voltage;
  double cycle_count = 0.0;
  Charge full_capacity;
  Current last_current;
  Temperature temperature;  // Pack thermistor reading.
};

// Everything that happened during one hardware tick, for the simulator's
// energy ledger.
struct MicroTick {
  DischargeTick discharge;
  ChargeTick charge;
  TransferTick transfer;
  bool transfer_active = false;
  Duration dt;
};

// Complete volatile microcontroller + pack state for checkpoint/restore:
// ground-truth cell lanes, gauge estimators, circuit RNG streams, ratio
// tuples, the in-flight transfer, the reboot/resync latch and the fault
// injector's clock. Configuration (cell parameters, circuit configs, the
// fault *plan*) is not carried — a restore re-applies this state onto a
// freshly constructed rig built from the same config and seeds.
struct MicroState {
  std::vector<soa::LaneState> lanes;  // Per-cell ground truth.
  std::vector<bool> open_circuit;
  std::vector<FuelGaugeState> gauges;
  DischargeCircuitState discharge_circuit;
  ChargeCircuitState charge_circuit;
  std::vector<double> charge_ratios;
  std::vector<double> discharge_ratios;
  // Flattened std::optional<ActiveTransfer> (wire-friendly).
  bool transfer_active = false;
  uint64_t transfer_from = 0;
  uint64_t transfer_to = 0;
  Power transfer_power;
  Duration transfer_remaining;
  bool awaiting_resync = false;
  bool in_reset = false;
  uint32_t boot_count = 0;
  bool has_fault_state = false;  // False when no fault plan was installed.
  FaultInjectorState fault;
};

class SdbMicrocontroller {
 public:
  // Takes ownership of the pack. `seed` drives all measurement noise.
  SdbMicrocontroller(BatteryPack pack, DischargeCircuitConfig discharge_config,
                     ChargeCircuitConfig charge_config, FuelGaugeConfig gauge_config,
                     uint64_t seed);

  size_t battery_count() const { return pack_.size(); }

  // --- The four SDB APIs ----------------------------------------------------

  // Ratios must be non-negative and sum to 1 (tolerance 1e-6).
  Status SetChargeRatios(const std::vector<double>& ratios);
  Status SetDischargeRatios(const std::vector<double>& ratios);

  // Schedules a battery-to-battery transfer of `power` for `duration`; runs
  // during subsequent Step calls and stops early if the source empties or
  // the destination fills. A new call replaces any active transfer.
  Status ChargeOneFromAnother(size_t from, size_t to, Power power, Duration duration);

  std::vector<BatteryStatus> QueryBatteryStatus() const;
  // The same report written into `*out`, reusing its capacity.
  void QueryBatteryStatus(std::vector<BatteryStatus>* out) const;

  // --- Auxiliary commands ---------------------------------------------------

  Status SelectChargeProfile(size_t battery, size_t profile_index);
  void CancelTransfer();

  // --- Watchdog / reboot model ----------------------------------------------
  //
  // A kMicroCrash or kMicroBrownout fault reboots the controller: the
  // in-flight transfer is dropped, the volatile ratio tuples reset to the
  // uniform safe default, and mutating commands are refused with
  // FailedPrecondition until the OS completes the resync handshake (Resync()
  // directly, or the sequence-numbered handshake over CommandLink).

  bool awaiting_resync() const { return awaiting_resync_; }
  // True while a brownout window holds the controller in reset: every
  // command (queries included) fails, while the power circuits keep running
  // the safe-default split.
  bool in_reset() const { return in_reset_; }
  // Increments on every reboot; the link server uses it to invalidate its
  // idempotent-replay cache across reboots.
  uint32_t boot_count() const { return boot_count_; }
  // Completes the resync handshake and re-opens the command surface.
  // Returns the boot counter the OS should record.
  uint32_t Resync();

  // Warm-restart hook: marks the controller as freshly power-cycled —
  // mutating commands are refused until Resync() — and bumps the boot
  // counter, WITHOUT resetting the ratio tuples or dropping the transfer
  // (unlike a watchdog Reboot(); the restore path reinstates those from the
  // snapshot and then completes the handshake itself).
  void RequireResync();

  // Attaches a protection supervisor (non-owning; must outlive the
  // microcontroller, or detach with nullptr). While attached, every tick's
  // per-battery outcome is inspected and faulted batteries are removed from
  // the charge/discharge splits until their faults clear.
  void AttachSafety(SafetySupervisor* supervisor) { safety_ = supervisor; }
  SafetySupervisor* safety() { return safety_; }
  bool transfer_active() const { return transfer_.has_value(); }

  // Installs a fault plan: the microcontroller owns the injector, advances
  // its clock once per Step, and re-attaches every fuel gauge to it.
  // Replaces any previously installed plan — pointers handed out by
  // fault_injector() before this call are invalidated.
  void InstallFaults(FaultPlan plan);

  // The active injector (nullptr when no plan is installed). Attach link
  // clients to this so wire faults share the plan's clock and RNG stream.
  FaultInjector* fault_injector() { return fault_.has_value() ? &*fault_ : nullptr; }

  const std::vector<double>& charge_ratios() const { return charge_ratios_; }
  const std::vector<double>& discharge_ratios() const { return discharge_ratios_; }

  // --- Simulation interface -------------------------------------------------

  // Advances the hardware one tick: external supply (if any) feeds the load
  // first and the surplus charges the pack per the charge ratios; any load
  // not covered by the supply is drawn from the pack per the discharge
  // ratios; an active transfer runs on top. The returned tick is owned by
  // the microcontroller and valid until the next Step (every field is
  // rewritten on every call); a caller that keeps a tick must copy it.
  const MicroTick& Step(Power load, Power external_supply, Duration dt);

  // Ground-truth access for the emulator and tests (not visible to the OS).
  const BatteryPack& pack() const { return pack_; }
  BatteryPack& mutable_pack() { return pack_; }

  // Checkpoint/restore of the full volatile state (see MicroState). Restore
  // rejects snapshots whose arity does not match this controller's pack, or
  // whose fault-injector state does not match the installed plan; it must be
  // called on a rig built from the same configuration and seeds.
  MicroState SaveState() const;
  Status RestoreState(const MicroState& state);

 private:
  struct ActiveTransfer {
    size_t from;
    size_t to;
    Power power;
    Duration remaining;
  };

  Status ValidateRatios(const std::vector<double>& ratios) const;
  // Refuses mutating commands while in reset or awaiting resync.
  Status CheckCommandGate() const;
  // Watchdog reboot: drops in-flight commands, resets volatile state to the
  // safe defaults and demands a resync before new commands are accepted.
  void Reboot();
  // Zeroes faulted batteries' shares and renormalises (all-zero when every
  // battery is faulted); caps probing batteries at the supervisor's probe
  // share, spilling the excess onto the unconstrained batteries. Returns
  // `ratios` itself when nothing is masked, else masked_ratios_, which the
  // next call overwrites.
  const std::vector<double>& MaskFaulted(const std::vector<double>& ratios);

  BatteryPack pack_;
  SdbDischargeCircuit discharge_circuit_;
  SdbChargeCircuit charge_circuit_;
  std::vector<FuelGauge> gauges_;
  std::vector<double> charge_ratios_;
  std::vector<double> discharge_ratios_;
  std::optional<ActiveTransfer> transfer_;
  SafetySupervisor* safety_ = nullptr;
  std::optional<FaultInjector> fault_;
  bool awaiting_resync_ = false;
  bool in_reset_ = false;
  uint32_t boot_count_ = 0;

  // Step's output tick and MaskFaulted's buffer, reused so a steady-state
  // Step allocates nothing.
  MicroTick tick_;
  std::vector<double> masked_ratios_;
};

// Convenience: builds a microcontroller with default circuit/gauge configs
// over the given cells.
SdbMicrocontroller MakeDefaultMicrocontroller(std::vector<Cell> cells, uint64_t seed = 42);

}  // namespace sdb

#endif  // SRC_HW_MICROCONTROLLER_H_
