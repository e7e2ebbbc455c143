// The SDB Runtime (paper §3.3, Fig. 5): the OS-resident component that owns
// all charging/discharging scheduling decisions. It takes clues from the
// rest of the OS (directive parameters, workload hints), maintains the two
// N-tuples (c1..cN) and (d1..dN) of power ratios, and programs the SDB
// microcontroller through the four APIs.
#ifndef SRC_CORE_RUNTIME_H_
#define SRC_CORE_RUNTIME_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/blended_policy.h"
#include "src/core/ccb_policy.h"
#include "src/core/metrics.h"
#include "src/core/policy_db.h"
#include "src/core/rbl_policy.h"
#include "src/core/workload_aware.h"
#include "src/hw/microcontroller.h"

namespace sdb {

class CommandLinkClient;

// Counters for the runtime's fault-resilience machinery, cumulative over the
// runtime's lifetime, so a test (or an OS health daemon) can assert "the
// link flaked N times and we recovered" without replaying the journal.
struct ResilienceCounters {
  uint64_t link_retries = 0;     // Query retries attempted after a link error.
  uint64_t link_failures = 0;    // Roundtrips that exhausted every retry.
  uint64_t stale_updates = 0;    // Updates planned from cached status.
  uint64_t degraded_entries = 0; // Transitions healthy -> degraded.
  uint64_t degraded_exits = 0;   // Transitions degraded -> healthy.
  uint64_t masked_faults = 0;    // Battery-updates with a fault masked out.
  uint64_t quarantines = 0;      // Batteries newly excluded from planning.
  uint64_t reintegrations = 0;   // Batteries returned to the allocation.
  uint64_t resyncs = 0;          // Post-reboot handshakes completed.
  Duration backoff_total;        // Simulated time spent in retry backoff.
};

struct RuntimeConfig {
  DirectiveParameters directives;  // Initial charge/discharge directives.
  RblPolicyConfig rbl;
  CcbPolicyConfig ccb;
  ReservePolicyConfig reserve;
  // Steady load assumed when reporting the RBL metric.
  Power anticipated_load = Watts(1.0);
  // Thermal derating (paper §3.3: ratio changes can be triggered by "a
  // change in device temperature"): between these temperatures a battery's
  // usable current ramps linearly down to zero.
  Temperature derate_start = Celsius(45.0);
  Temperature derate_cutoff = Celsius(60.0);
  // Fault resilience: a failed QueryBatteryStatus over the command link is
  // retried up to `link_retries` times with doubling backoff (simulated
  // time, accumulated in ResilienceCounters::backoff_total). While the link
  // stays down the runtime plans from its last good status for up to
  // `stale_updates_tolerated` updates before declaring itself degraded.
  int link_retries = 3;
  Duration retry_backoff_base = Seconds(0.01);
  Duration retry_backoff_cap = Seconds(0.08);
  int stale_updates_tolerated = 5;
  // Reintegration ramp: when a quarantined battery returns, its share of
  // the splits grows linearly from zero over this horizon (of simulated
  // time advanced through AdvanceTime) instead of snapping back to full.
  // Zero disables ramping — a returning battery rejoins at full share.
  Duration reintegration_horizon = Seconds(0.0);
};

// Complete mutable runtime state for checkpoint/restore: policy directives,
// the workload-hint window, planning caches (last ratios / statuses), the
// degraded-mode and quarantine masks, reintegration ramp progress, and the
// resilience counters. Policy configuration is not carried — a restore
// re-applies this onto a runtime constructed from the same RuntimeConfig.
struct RuntimeState {
  DirectiveParameters directives;
  bool has_hint = false;  // Flattened std::optional<WorkloadHint>.
  WorkloadHint hint;
  double last_ccb = 1.0;
  Energy last_rbl;
  Duration elapsed;
  std::vector<double> last_discharge_ratios;
  std::vector<double> last_charge_ratios;
  std::vector<BatteryStatus> last_statuses;
  int64_t consecutive_stale = 0;
  bool degraded = false;
  std::vector<bool> excluded;
  std::vector<bool> prev_excluded;
  std::vector<double> ramp;
  uint64_t last_link_resyncs = 0;
  ResilienceCounters resilience;
};

// What RestoreAndResync did beyond restoring state: whether the boot-count
// handshake ran (or was deferred because the controller is held in reset)
// and how many checkpointed status fields disagreed with what the hardware
// reports now (adopted from hardware, counted as drift).
struct RestoreReport {
  bool resynced = false;
  bool resync_deferred = false;
  uint64_t drift_fields = 0;
};

class SdbRuntime {
 public:
  // `micro` must outlive the runtime.
  SdbRuntime(SdbMicrocontroller* micro, RuntimeConfig config = {});

  // --- Clues from the rest of the OS ---------------------------------------

  void SetChargingDirective(double value);
  void SetDischargingDirective(double value);
  void SetDirectives(DirectiveParameters params);
  DirectiveParameters directives() const;

  // Announces (or clears) an anticipated high-power workload; the discharge
  // schedule preserves the most suitable battery for it (§5.2).
  void SetWorkloadHint(std::optional<WorkloadHint> hint);
  const std::optional<WorkloadHint>& workload_hint() const { return reserve_.hint(); }

  // Counts the hint's start time down as simulated time passes; the hint is
  // dropped once the anticipated workload window has fully elapsed.
  void AdvanceTime(Duration dt);

  // --- The scheduling step ---------------------------------------------------

  // Rebuilds battery views from QueryBatteryStatus + manufacturer curves,
  // recomputes both ratio vectors for the expected load/supply, and programs
  // the microcontroller. Call at coarse time steps (the paper's runtime
  // "calculates these power values at coarse granular time steps").
  [[nodiscard]] Status Update(Power expected_load, Power expected_supply);

  // Passthrough for battery-to-battery transfers.
  [[nodiscard]] Status RequestTransfer(size_t from, size_t to, Power power, Duration duration);

  // Routes the four SDB APIs over a serial command link instead of direct
  // calls, which brings the link's failure modes (timeouts, corrupt
  // replies) into scope: queries retry with backoff and fall back to the
  // last good status, and setter failures keep the previous ratios. `link`
  // must outlive the runtime or be detached with nullptr.
  void AttachLink(CommandLinkClient* link) { link_ = link; }

  // --- Introspection ----------------------------------------------------------

  // The views Update plans from, for the current status. It fills the
  // runtime's curve-hint cache, so, as with LastRbl(), one runtime is not
  // safe for concurrent readers.
  BatteryViews BuildViews() const;
  double LastCcb() const { return last_ccb_; }
  // The RBL metric over the last Update's views. No decision reads it, so
  // Update only marks it stale and the first read after an Update computes
  // it (the value is the one Update would have computed). The read fills a
  // memo, so one runtime is not safe for concurrent readers.
  Energy LastRbl() const;
  const std::vector<double>& last_discharge_ratios() const { return last_discharge_ratios_; }
  const std::vector<double>& last_charge_ratios() const { return last_charge_ratios_; }

  // Degraded mode: true while any battery is masked from the allocator or
  // the status feed has been stale past the configured tolerance.
  bool degraded() const { return degraded_; }
  const std::vector<bool>& excluded_batteries() const { return excluded_; }
  // Per-battery reintegration ramp in [0, 1]: 1 = full participant, < 1 =
  // recently returned from quarantine and still ramping back in.
  const std::vector<double>& reintegration_ramp() const { return ramp_; }
  const ResilienceCounters& resilience() const { return resilience_; }

  SdbMicrocontroller* microcontroller() { return micro_; }

  // --- Checkpoint / warm restart --------------------------------------------

  // Snapshots / reinstates the full mutable runtime state (see RuntimeState).
  // Restore rejects snapshots whose per-battery vectors do not match this
  // runtime's battery count.
  RuntimeState SaveState() const;
  [[nodiscard]] Status RestoreState(const RuntimeState& state);

  // Warm-restart entry point: restores `state`, then (a) completes the
  // boot-count resync handshake directly against the microcontroller — never
  // over the command link, whose fault injection would consume RNG — and
  // adopts the boot count into the attached link client; (b) reconciles
  // drift between the checkpointed battery statuses and what the hardware
  // reports now, adopting the hardware values. A controller held in reset
  // defers the handshake to the first post-restore Update.
  [[nodiscard]] StatusOr<RestoreReport> RestoreAndResync(const RuntimeState& state);

 private:
  // Refreshes last_statuses_ from QueryBatteryStatus, with retry-with-backoff
  // over the attached link (or a direct, infallible microcontroller call
  // that reuses the buffer when no link is attached). A failed query leaves
  // last_statuses_ as it was.
  [[nodiscard]] Status QueryStatusWithRetry();
  // Writes one view per status into `*views`, reusing its capacity.
  void BuildViewsFrom(const std::vector<BatteryStatus>& statuses, BatteryViews* views) const;

  // Per-battery segment hints for BuildViewsFrom's curve lookups. A derived
  // cache (DESIGN.md §12, "Derived caches"): any value is safe, a hit
  // returns the unhinted lookup's double, and no checkpoint carries it.
  struct CurveHints {
    uint32_t ocv = 0;
    uint32_t dcir = 0;
  };

  SdbMicrocontroller* micro_;
  RuntimeConfig config_;

  RblDischargePolicy rbl_discharge_;
  CcbDischargePolicy ccb_discharge_;
  BlendedDischargePolicy blended_discharge_;
  ReserveDischargePolicy reserve_;
  RblChargePolicy rbl_charge_;
  CcbChargePolicy ccb_charge_;
  BlendedChargePolicy blended_charge_;

  double last_ccb_ = 1.0;
  // RBL memo: when stale, LastRbl() recomputes it from views_, which only
  // Update writes.
  mutable Energy last_rbl_ = Joules(0.0);
  mutable bool rbl_stale_ = false;
  // Update's buffers, reused across replans so a healthy one allocates
  // nothing once warmed up.
  BatteryViews views_;  // The last Update's views.
  mutable std::vector<CurveHints> view_hints_;
  friend class RuntimeViewHintsPeer;  // Tests read and scramble the hints.
  std::vector<double> discharge_shares_;
  std::vector<double> charge_shares_;
  std::vector<bool> eligible_scratch_;  // For the exclusion and ramp passes.
  Duration elapsed_ = Seconds(0.0);
  std::vector<double> last_discharge_ratios_;
  std::vector<double> last_charge_ratios_;

  CommandLinkClient* link_ = nullptr;
  std::vector<BatteryStatus> last_statuses_;  // Last good query result.
  int consecutive_stale_ = 0;
  bool degraded_ = false;
  std::vector<bool> excluded_;
  std::vector<bool> prev_excluded_;   // Exclusion mask from the last Update.
  std::vector<double> ramp_;          // Reintegration ramp, 1.0 = full share.
  uint64_t last_link_resyncs_ = 0;    // Client resync count already absorbed.
  ResilienceCounters resilience_;
};

}  // namespace sdb

#endif  // SRC_CORE_RUNTIME_H_
