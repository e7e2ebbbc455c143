// The seeded recovery harness (DESIGN.md §10, "Seeded harness"): the pieces the
// fault soak, the crash soak and the scenario fuzzer share — one hash, one
// recovery rig with its snapshot/restore pair, one per-tick invariant
// checker, one violation sink, one warm-restart driver and one seeded sweep.
//
// Determinism rule: everything a sweep slot computes derives from its own
// seed, the slot is written only by its own index, and slot fingerprints
// merge in index order, so every report is bit-identical for any --jobs.
#ifndef SRC_EMU_HARNESS_H_
#define SRC_EMU_HARNESS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/chem/cell.h"
#include "src/core/checkpoint/snapshot.h"
#include "src/core/runtime.h"
#include "src/emu/crash.h"
#include "src/emu/simulator.h"
#include "src/hw/command_link.h"
#include "src/hw/fault.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// --- Hashing -----------------------------------------------------------------

// The fingerprint mix every harness digest is built from.
inline uint64_t MixU64(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

inline uint64_t MixDouble(uint64_t h, double v) {
  return MixU64(h, std::bit_cast<uint64_t>(v));
}

// Index-ordered merge of per-slot digests: a sweep report's fingerprint.
template <typename Slot>
uint64_t MergeFingerprints(const std::vector<Slot>& slots) {
  uint64_t h = 0;
  for (const Slot& slot : slots) {
    h = MixU64(h, slot.fingerprint);
  }
  return h;
}

// --- The seeded sweep --------------------------------------------------------

// Runs `run_one(k)` for every k in [0, count) on `jobs` workers (1 = inline,
// 0 = auto), each with no journal installed; a slot that wants its events
// installs its own. `run_one(k)` must depend on k alone and write only slot k.
void RunSeededSweep(int64_t count, int jobs, const std::function<void(int64_t)>& run_one);

// --- Violations --------------------------------------------------------------

// The energy-ledger bound the fault soak (invariant 5) and fuzz oracle 2
// share: a run's |drawn - accounted| may reach 2 J or 3% of what it drew,
// whichever is larger.
inline Energy LedgerTolerance(Energy drawn) {
  return Joules(std::max(2.0, std::fabs(drawn.value()) * 0.03));
}

// One recorded breach; each harness copies these into its own report type.
struct Breach {
  Duration time;
  std::string tag;
  std::string detail;
};

// The one violation sink: every breach lands in the installed flight-recorder
// journal (so dropped ones stay visible in a post-mortem), the first
// kMaxKept are kept and the rest only counted.
class ViolationSink {
 public:
  static constexpr size_t kMaxKept = 16;

  void Add(Duration at, std::string_view tag, std::string detail);

  const std::vector<Breach>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Breach> kept_;
  uint64_t dropped_ = 0;
};

// --- The recovery rig --------------------------------------------------------

// Runtime config of every harness rig: reintegration ramping on.
RuntimeConfig HarnessRuntimeConfig();

// The 4-battery tablet pack the fault soak and the crash soak play against.
inline constexpr int kTabletRigBatteries = 4;
std::vector<Cell> TabletRigCells();

// Draws a fault event's kind-specific magnitude (SoC offset, noise
// multiplier, efficiency factor, or trip temperature in kelvin); kinds
// without one take 0 and draw nothing.
double SampleFaultMagnitude(FaultClass kind, Rng& rng);

// A full SDB stack: microcontroller + recovery-enabled safety supervisor (dwell
// times short enough that a trip near the last fault window still finishes
// its cool-down and probe inside the horizon) + command link + runtime.
// "Process death" destroys a rig and warm restart builds a fresh one from the
// same arguments; components point at each other, so a rig never moves.
class RecoveryRig {
 public:
  RecoveryRig(std::vector<Cell> cells, uint64_t micro_seed, const FaultPlan& faults,
              const RuntimeConfig& runtime_config);
  virtual ~RecoveryRig() = default;

  RecoveryRig(const RecoveryRig&) = delete;
  RecoveryRig& operator=(const RecoveryRig&) = delete;

  // Sections micro, safety, link, runtime, the subclass's own sections,
  // then sim-loop. The byte layout is what torn-write offsets land in.
  checkpoint::Snapshot SaveSnapshot(const SimLoopState& state) const;

  // Restores a freshly built rig from `snap`, completes the boot-count resync
  // handshake and hands back the loop resume point. Every core section is
  // decoded before any component is touched.
  Status RestoreSnapshot(const checkpoint::Snapshot& snap, RestoreReport* resync,
                         SimLoopState* loop);

  SdbMicrocontroller micro;
  SafetySupervisor safety;
  CommandLinkServer server;
  CommandLinkClient client;
  SdbRuntime runtime;
  // Sees every request the client sends, before the server does (the fault
  // soak's wire audit). Empty = no tap.
  std::function<void(const std::vector<uint8_t>&)> frame_tap;

 protected:
  // Sections a harness layers on top of the core rig, written between
  // runtime and sim-loop (the crash soak's predictor and classifier).
  virtual void SaveExtraSections(checkpoint::Snapshot& /*snap*/) const {}
  virtual Status RestoreExtraSections(const checkpoint::Snapshot& /*snap*/) {
    return Status::Ok();
  }
};

// "checkpoint: snapshot is missing the <name> section".
Status MissingSection(const char* name);

// --- Per-tick invariants -----------------------------------------------------

// The per-tick checks the fault soak and fuzz oracle 1 share, installed as
// (part of) the SimConfig::on_tick observer. Per battery, in this order:
//   soc-range        ground-truth SoC is finite and inside [0, 1];
//   cycle-monotone   the cycle count never runs backwards;
//   faulted-current  a battery safety-faulted when the tick began carried
//                    no current during it.
class TickInvariants {
 public:
  TickInvariants(const RecoveryRig& rig, ViolationSink* sink);

  void Check(const MicroTick& tick, Duration now);
  // One battery's tick: `current` is the larger of its discharge and
  // charge current magnitudes, `faulted` the supervisor's verdict after it.
  void CheckBattery(size_t i, Duration now, double soc, double cycles, Current current,
                    bool faulted);

 private:
  const RecoveryRig* rig_;
  ViolationSink* sink_;
  std::vector<bool> prev_faulted_;
  std::vector<double> prev_cycles_;
};

// --- The warm-restart driver -------------------------------------------------

// One crash-and-restart run: what the driver needs from its harness.
struct WarmRestartRun {
  // Builds a fresh rig: one process life.
  std::function<std::unique_ptr<RecoveryRig>()> boot;
  // The SimConfig for one life of `rig`; `resume` is null on a cold boot.
  // The driver sets the checkpoint period and hooks on top; an on_barrier
  // given here runs before the crash schedule is consulted.
  std::function<SimConfig(RecoveryRig& rig, const SimLoopState* resume)> sim_config;
  const PowerTrace* load = nullptr;
  const PowerTrace* supply = nullptr;
  std::vector<CrashEvent> crashes;  // Sorted by time; each fires once.
  Duration checkpoint_period;       // Zero: no checkpoints are written.
  uint64_t config_digest = 0;
  uint64_t torn_seed = 0;           // XORed with the crash index per tear.
  const char* save_tag = "save";    // Violation tag for a failed Save.
};

// What a warm-restart run did; the counters are the crash report's.
struct WarmRestartOutcome {
  SimResult result;                  // The last life's result.
  std::unique_ptr<RecoveryRig> rig;  // The last life's rig.
  Status restore;                    // Non-OK: a restore failed; the run stopped.
  int crashes_fired = 0;
  int warm_restarts = 0;
  int cold_restarts = 0;
  int torn_writes = 0;
  int corrupt_slots = 0;
  int slot_fallbacks = 0;
  uint64_t drift_fields = 0;
  bool resynced = false;
};

// Plays `run` to the end of its load: fires each crash event at its barrier
// (tearing the checkpoint write a mid-write death interrupts), and after
// every death rebuilds the rig and store, loads the last good A/B slot (cold
// start when none survived), restores and resumes. Only the slot device
// survives a death.
WarmRestartOutcome RunWithWarmRestarts(const WarmRestartRun& run, ViolationSink* sink);

}  // namespace sdb

#endif  // SRC_EMU_HARNESS_H_
