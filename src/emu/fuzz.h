// Seeded scenario fuzzer (ROADMAP item 5): samples pack × parameter ×
// directive × FaultPlan × crash-schedule × directive-flip combinations from
// one master seed, plays each case through a full recovery-enabled rig, and
// checks a set of oracles:
//
//   1. the soak harness's per-tick invariants (SoC in range, faulted
//      batteries carry no current, cycle counts monotone),
//   2. the energy ledger balances over the run,
//   3. the safety supervisor never trips on a fault-free load that stays
//      inside the pack envelope and never commands any single battery past
//      its own envelope,
//   4. no sampled policy loses more than a configured fraction of lifetime
//      against a small panel of alternative directives on the fault-free
//      twin of the case (the cross-policy regression oracle), and
//   5. a case that carries a crash schedule (DESIGN.md §16) is replayed
//      with checkpointing on, killed at the scheduled barriers — tearing
//      the checkpoint write it interrupts — warm-restarted from the last
//      good A/B slot, and must finish bit-identical to the never-crashed
//      run (the crash-equivalence oracle).
//
// Fault plans can land inside the charge phase (a dedicated stream aims one
// charge-relevant fault at a supply-active window when the scenario has
// one), and directive flips re-aim the policy mid-run, targeted at the
// CoolDown/Probing recovery window right after a fault clears.
//
// A failing case is shrunk greedily (drop fault/crash/flip events, revert
// parameter overrides, snap directives to neutral) to a minimal
// still-failing case and serialized as a one-line reproducer; a corpus of
// such lines replays deterministically (same master seed ⇒ same
// fingerprints at any --jobs).
#ifndef SRC_EMU_FUZZ_H_
#define SRC_EMU_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/policy_db.h"
#include "src/emu/crash.h"
#include "src/emu/scenario_pack.h"
#include "src/hw/fault.h"
#include "src/obs/event.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

struct FuzzConfig {
  uint64_t master_seed = 1;
  int cases = 20;
  // Worker threads: 1 = serial, 0 = auto (SDB_THREADS / hardware).
  int jobs = 1;
  // Packs to sample from; empty means every registered pack.
  std::vector<std::string> packs;
  // Chance a sampled case carries a random fault plan.
  double fault_probability = 0.5;
  // Chance a sampled case carries a seeded crash schedule (oracle 5).
  // Sampled from a dedicated salted stream, so turning the dimension off
  // leaves every other draw untouched.
  double crash_probability = 0.35;
  // Oracle 4: fail when the sampled directives' lifetime falls more than
  // this fraction short of the best panel policy on the fault-free run.
  // Zero demands the sampled policy match the panel optimum exactly.
  double max_lifetime_loss_fraction = 0.25;
  // Per-run horizon cap: long packs are truncated here so a fuzz sweep
  // stays fast. Applied identically to every run of a case.
  Duration horizon_cap = Hours(2.0);
  bool shrink = true;
};

// One mid-run policy re-aim: at `time` the runtime's directives are
// replaced wholesale (the OS changing its mind about the battery doctrine
// while the pack may still be recovering from a fault).
struct DirectiveFlip {
  Duration time;
  double discharging = 0.5;
  double charging = 0.5;
};

// One sampled (or replayed) scenario: everything needed to re-run it.
struct FuzzCase {
  std::string pack;
  PackParams overrides;  // Only the explicitly overridden knobs.
  uint64_t seed = 0;     // Drives expansion jitter and rig noise.
  DirectiveParameters directives;
  FaultPlan faults;      // Empty = fault-free case.
  // Crash schedule for oracle 5; empty = the crash twin is never run.
  std::vector<CrashEvent> crashes;
  // Mid-run directive flips, applied (in time order) to the main run and
  // its crash twin alike.
  std::vector<DirectiveFlip> flips;
};

struct FuzzViolation {
  std::string oracle;  // Short tag: "soc-range", "ledger", "safety-trip", ...
  std::string detail;
  Duration time;
};

struct FuzzCaseReport {
  FuzzCase sampled;                     // As drawn from the master seed.
  std::vector<FuzzViolation> violations;
  bool failed = false;
  // One-line reproducer for the (shrunk, when shrinking is on) case.
  std::string reproducer;
  int shrink_steps = 0;                 // Accepted reductions.
  uint64_t fingerprint = 0;
  // Flight-recorder journal of the failing run (fault windows, safety trips,
  // oracle verdicts, ...): the shrunk case when shrinking reduced it, else
  // the sampled case, so the journal narrates what the reproducer replays.
  // Deterministic per case; NOT part of the fingerprint.
  std::vector<obs::JournalEvent> journal;
};

struct FuzzReport {
  std::vector<FuzzCaseReport> cases;
  uint64_t failures = 0;
  uint64_t fingerprint = 0;  // Index-ordered merge of case digests.

  bool ok() const { return failures == 0; }
};

// --- Reproducer lines --------------------------------------------------------

// Serializes a case as one line of space-separated key=value tokens
// (doubles printed with %.17g so Parse(Format(c)) round-trips exactly):
//   pack=ev-burst seed=7 dch=0.5 chg=0.5 p:hours=2
//       fseed=7 fault=open-circuit:120:300:1:0:1
//       crash=mid-checkpoint-write:truncate:1800 flip=2400:0.2:0.8
std::string FormatFuzzCase(const FuzzCase& fuzz_case);
StatusOr<FuzzCase> ParseFuzzCase(const std::string& line);

// A corpus is a header comment, then reproducer lines (FormatFuzzCase's
// output) one per line; '#' comments and blank lines are skipped on parse.
std::string FormatFuzzCorpus(const std::vector<std::string>& reproducers);
StatusOr<std::vector<FuzzCase>> ParseFuzzCorpus(const std::string& text);

// --- Single-case machinery ---------------------------------------------------

// Deterministically draws case `index` of a sweep: pure function of
// (config packs/fault knobs, case_seed).
FuzzCase SampleFuzzCase(const FuzzConfig& config, uint64_t case_seed);

// Runs every oracle against one case. Empty result = case passes. When
// `journal` is non-null the run is played under a private flight-recorder
// journal whose snapshot lands in `*journal`; either way the evaluation is
// hermetic — it never emits into a journal installed by the caller.
std::vector<FuzzViolation> EvaluateFuzzCase(
    const FuzzCase& fuzz_case, const FuzzConfig& config,
    std::vector<obs::JournalEvent>* journal = nullptr);

// Greedy shrink against an arbitrary failure predicate (`fails` must be
// true for `fuzz_case` itself). Tries, to a fixpoint or until `budget`
// predicate evaluations are spent: dropping fault, crash and flip events
// one at a time, reverting parameter overrides to pack defaults, then
// snapping directives to 0.5. Returns the smallest still-failing case found.
FuzzCase ShrinkFuzzCaseWith(const FuzzCase& fuzz_case,
                            const std::function<bool(const FuzzCase&)>& fails,
                            int budget, int* steps = nullptr);

// Shrink against the real oracle suite.
FuzzCase ShrinkFuzzCase(const FuzzCase& fuzz_case, const FuzzConfig& config,
                        int* steps = nullptr);

// --- The sweep ---------------------------------------------------------------

// InvalidArgument unless `fault_probability` and `max_lifetime_loss_fraction`
// lie in [0, 1] and `horizon_cap` is positive.
Status CheckFuzzSettings(const FuzzConfig& config);

// Samples and evaluates `config.cases` cases (case k from master_seed + k),
// shrinking failures when configured. Rejects a non-positive case count,
// unknown pack names in `config.packs` and settings CheckFuzzSettings
// refuses with InvalidArgument. Bit-identical for any `jobs`.
StatusOr<FuzzReport> RunFuzz(const FuzzConfig& config);

// Replays an explicit case list through the oracles (the --replay path).
// Callers vet `config` with CheckFuzzSettings first.
FuzzReport ReplayFuzzCases(const std::vector<FuzzCase>& cases,
                           const FuzzConfig& config);

}  // namespace sdb

#endif  // SRC_EMU_FUZZ_H_
