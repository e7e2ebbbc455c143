// Seeded fault-recovery soak harness (DESIGN.md §9): long randomized fault
// schedules played against a full SDB stack (pack + recovery-enabled safety
// supervisor + command link + runtime with reintegration ramping), with a
// set of invariants checked on every hardware tick:
//
//   1. every ground-truth SoC stays finite and inside [0, 1],
//   2. a battery that was safety-faulted at the start of a tick carries no
//      current during that tick (the hardware mask holds),
//   3. the runtime never programs a nonzero share for a battery it has
//      quarantined (audited at the wire, frame by frame),
//   4. per-battery cycle counts are monotone,
//   5. the energy ledger balances over the whole run, and
//   6. after every fault window closes, the allocation converges back to a
//      never-faulted baseline run of the same rig.
//
// Determinism: schedule k derives everything (fault plan, rig seeds) from
// base_seed + k alone, and results land in per-index slots, so the report —
// including its fingerprint — is bit-identical for any --jobs value.
#ifndef SRC_EMU_SOAK_H_
#define SRC_EMU_SOAK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/fault.h"
#include "src/obs/event.h"
#include "src/util/units.h"

namespace sdb {

struct SoakConfig {
  uint64_t base_seed = 1;
  int schedules = 20;          // Independent randomized fault schedules.
  Duration horizon = Hours(2.0);
  Duration tick = Seconds(10.0);
  Duration runtime_period = Minutes(10.0);
  Power load = Watts(6.0);
  // Worker threads: 1 = serial, 0 = auto (SDB_THREADS / hardware).
  int jobs = 1;
};

// Post-recovery convergence (invariant 6): the largest per-battery difference
// allowed between the final programmed discharge shares of the faulted run
// and the never-faulted baseline.
inline constexpr double kSoakConvergenceTolerance = 0.15;

// One invariant breach, with enough context to replay the schedule.
struct SoakViolation {
  uint64_t seed = 0;
  Duration time;
  std::string invariant;  // Short tag, e.g. "soc-range" or "ledger".
  std::string detail;
};

// Outcome of one randomized schedule.
struct SoakScheduleReport {
  uint64_t seed = 0;
  int events = 0;              // Fault events in the generated plan.
  bool completed = false;      // The run covered the full horizon.
  bool recovered = false;      // Healthy supervisor + non-degraded runtime at end.
  double max_share_delta = 0.0;  // Final shares vs the baseline run.
  uint64_t trips = 0;
  uint64_t recoveries = 0;
  uint64_t reboots = 0;
  uint64_t resyncs = 0;
  uint64_t replayed_commands = 0;
  std::vector<SoakViolation> violations;  // Bounded; see violations_dropped.
  uint64_t violations_dropped = 0;
  uint64_t fingerprint = 0;    // Bit-exact digest of this schedule's result.
  // Flight-recorder journal of the faulted run (safety trips, lifecycle,
  // quarantines, oracle verdicts, ...). Deterministic per seed; NOT part of
  // the fingerprint, which digests the explicit fields above.
  std::vector<obs::JournalEvent> journal;
};

struct SoakReport {
  std::vector<SoakScheduleReport> schedules;
  uint64_t total_violations = 0;
  uint64_t fingerprint = 0;    // Index-ordered merge of schedule digests.

  bool ok() const { return total_violations == 0; }
};

// Generates a randomized fault plan for `batteries` batteries: 1..max_events
// events with kinds drawn across the whole taxonomy, every window closing by
// 70% of the horizon so recovery and reconvergence have room to finish. Pure
// function of the arguments — same seed, same plan.
FaultPlan MakeRandomFaultPlan(uint64_t seed, int batteries, Duration horizon,
                              int max_events);

// Runs `config.schedules` randomized schedules (each paired with a
// never-faulted baseline of the same rig) and checks every invariant.
SoakReport RunSoak(const SoakConfig& config);

}  // namespace sdb

#endif  // SRC_EMU_SOAK_H_
