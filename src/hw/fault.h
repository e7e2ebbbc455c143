// Deterministic fault injection across the hw/os boundary.
//
// The paper's runtime lives between a flaky physical world (coulomb
// counters that drift, a serial command link, per-battery protection
// cutoffs) and OS policies that assume QueryBatteryStatus() always
// answers. This module schedules that flakiness explicitly: a FaultPlan is
// a list of timed fault events, and a FaultInjector evaluates the plan
// against simulated time so the hw-layer components (command link, fuel
// gauges, circuits, pack) can consult it from small hooks.
//
// All randomness draws from one explicitly-seeded util::Rng stream owned by
// the injector, so a faulted run is bit-for-bit reproducible and shards
// cleanly through the Monte-Carlo engine. With no injector attached (or an
// empty plan) every hook is a no-op that consumes no random draws, so
// healthy runs are unchanged down to the bit.
#ifndef SRC_HW_FAULT_H_
#define SRC_HW_FAULT_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// The fault taxonomy (DESIGN.md §7). Link faults apply to the whole wire;
// the rest target one battery (or all, when the event's battery is -1).
enum class FaultClass {
  kLinkTimeout,        // Command-link roundtrips fail (probability per call).
  kLinkCorruptReply,   // Response bytes take a random bit flip (CRC drops it).
  kGaugeBias,          // Reported SoC offset by `magnitude` (clamped to [0,1]).
  kGaugeNoise,         // Current-sense noise sigma multiplied by `magnitude`.
  kGaugeStuck,         // Gauge readings and integrator freeze.
  kRegulatorCollapse,  // Discharge efficiency multiplied by `magnitude` < 1.
  kOpenCircuit,        // Battery terminal disconnects (no charge/discharge).
  kThermalTrip,        // Pack thermistor reports at least `magnitude` kelvin.
  kMicroCrash,         // Controller watchdog-reboots once at window start.
  kMicroBrownout,      // Controller held in reset for the whole window.
};

// Every fault class, in declaration order. Seeded samplers index into this
// list, so its order is part of every random fault plan.
inline constexpr FaultClass kAllFaultClasses[] = {
    FaultClass::kLinkTimeout,  FaultClass::kLinkCorruptReply, FaultClass::kGaugeBias,
    FaultClass::kGaugeNoise,   FaultClass::kGaugeStuck,       FaultClass::kRegulatorCollapse,
    FaultClass::kOpenCircuit,  FaultClass::kThermalTrip,      FaultClass::kMicroCrash,
    FaultClass::kMicroBrownout,
};

std::string_view FaultClassName(FaultClass kind);

// One scheduled fault, active over [start, end) of the injector's clock.
struct FaultEvent {
  FaultClass kind = FaultClass::kLinkTimeout;
  Duration start;
  Duration end;
  // Target battery; -1 means every battery (and is the only sensible value
  // for the link-wide faults).
  int battery = -1;
  // Kind-specific strength: SoC offset, noise multiplier, efficiency
  // factor, or reported temperature in kelvin.
  double magnitude = 0.0;
  // Per-roundtrip chance for link faults (1 = every call in the window).
  double probability = 1.0;
};

// A schedule of fault events plus the seed for the injector's RNG stream.
struct FaultPlan {
  std::vector<FaultEvent> events;
  uint64_t seed = 0;

  bool empty() const { return events.empty(); }
  FaultPlan& Add(FaultEvent event) {
    events.push_back(event);
    return *this;
  }
};

// Mutable injector runtime state for checkpoint/restore. The plan itself is
// config (reinstalled from the scenario on restart); this carries only what
// evolves while the plan plays.
struct FaultInjectorState {
  RngState rng;
  Duration now;
  uint64_t dropped_queries = 0;
  uint64_t corrupted_replies = 0;
  uint64_t micro_reboots = 0;
  std::vector<bool> reboot_fired;
};

// Evaluates a FaultPlan against simulated time. The microcontroller owns
// one injector and advances its clock once per hardware tick; the hooks
// below are consulted by the link client, gauges and circuits.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Advances the injector clock (call once per hardware tick).
  void Advance(Duration dt);
  Duration now() const { return now_; }

  // --- Command link ---------------------------------------------------------

  // True when an active kLinkTimeout window decides this roundtrip dies.
  // Draws from the RNG only while a window is active.
  bool DropQuery();

  // Flips one random bit of `bytes` while a kLinkCorruptReply window is
  // active (and its probability fires). The frame CRC then rejects the
  // reply, so corruption surfaces as a link error, not as garbage data.
  void MaybeCorruptReply(std::vector<uint8_t>& bytes);

  // --- Fuel gauges ----------------------------------------------------------

  double GaugeSocBias(size_t battery) const;
  double GaugeNoiseScale(size_t battery) const;
  bool GaugeStuck(size_t battery) const;

  // --- Circuits and pack ----------------------------------------------------

  // Multiplier (0, 1] on the discharge path's conversion efficiency.
  double DischargeEfficiencyFactor() const;
  bool OpenCircuit(size_t battery) const;

  // Lowest temperature the pack thermistor will report for `battery` while
  // a kThermalTrip window is active.
  std::optional<Temperature> ReportedTemperatureFloor(size_t battery) const;

  // --- Microcontroller ------------------------------------------------------

  // True exactly once per crash/brownout event, on the first call at or
  // after the event's start: the microcontroller polls this every Step and
  // reboots when it fires. Stateful but RNG-free, so plans without these
  // kinds stay bit-identical.
  bool MicroRebootEdge();

  // True while a kMicroBrownout window is active: the controller is held in
  // reset and refuses every command until the window ends.
  bool MicroHeldInReset() const;

  // --- Counters (for tests and the sdbsim faults report) --------------------

  uint64_t dropped_queries() const { return dropped_queries_; }
  uint64_t corrupted_replies() const { return corrupted_replies_; }
  uint64_t micro_reboots() const { return micro_reboots_; }

  // Checkpoint/restore of the runtime state (the plan is config). Restore
  // rejects a fired-flag vector sized for a different plan.
  FaultInjectorState SaveState() const;
  Status RestoreState(const FaultInjectorState& state);

 private:
  // First active event of `kind` matching `battery` (events targeting -1
  // match every battery), or nullptr.
  const FaultEvent* Active(FaultClass kind, int battery) const;

  FaultPlan plan_;
  Rng rng_;
  Duration now_;
  uint64_t dropped_queries_ = 0;
  uint64_t corrupted_replies_ = 0;
  uint64_t micro_reboots_ = 0;
  // One fired flag per plan event, so each crash/brownout reboots once.
  std::vector<bool> reboot_fired_;
};

}  // namespace sdb

#endif  // SRC_HW_FAULT_H_
