// Crash-recovery soak harness (DESIGN.md §16): seeded crash schedules —
// simulated process death at named kill points inside the driver loop,
// optionally tearing the checkpoint write it interrupts — played against
// the same 4-battery recovery rig the fault soak uses, with a warm restart
// after every death: rebuild the rig from config + seeds, load the last
// good A/B snapshot, complete the boot-count resync handshake, reconcile
// drift, and Resume() the driver loop.
//
// Oracle: the crash-and-restore run must finish with a SimResult
// bit-identical to the never-crashed twin of the same rig (resync and boot
// counters legitimately differ and are not part of SimResult). Torn writes
// must always be detected (CRC/version) and recovered from the alternate
// slot — a silent load of corrupt state is a violation, not a tolerance.
//
// Determinism doctrine mirrors the soak: schedule k derives everything from
// base_seed + k, results land in per-index slots, so the report fingerprint
// is bit-identical for any --jobs value.
#ifndef SRC_EMU_CRASH_H_
#define SRC_EMU_CRASH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/emu/simulator.h"
#include "src/hw/fault.h"
#include "src/obs/event.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// How a mid-checkpoint-write death damages the snapshot image (applied to
// the encoded bytes after the CRC is stamped, before the device write —
// exactly what a power cut mid-write produces).
enum class TornWriteKind {
  kNone,       // The write completed before the power cut.
  kTruncate,   // Tail of the image never hit the device.
  kZeroRange,  // A middle extent was never flushed (reads back as zeros).
  kBitFlip,    // A single bit landed wrong.
};

std::string_view TornWriteKindName(TornWriteKind kind);

// One scheduled death. `torn` only applies at kMidCheckpointWrite (the two
// allocate barriers kill between writes, so there is nothing to tear);
// a mid-write event fires at the first checkpoint at or after `time`.
struct CrashEvent {
  Duration time;
  CrashBarrier barrier = CrashBarrier::kPreAllocate;
  TornWriteKind torn = TornWriteKind::kNone;
};

// Seed-keyed crash schedule: events sorted by time, fired strictly in
// order (an event already fired never re-fires on the resumed run).
struct CrashPlan {
  uint64_t seed = 0;
  std::vector<CrashEvent> events;
};

// Pure function of the arguments — same seed, same plan. 1..max_crashes
// events, all inside [5%, 90%] of the horizon.
CrashPlan MakeRandomCrashPlan(uint64_t seed, Duration horizon, int max_crashes);

struct CrashConfig {
  uint64_t base_seed = 1;
  int schedules = 10;          // Independent randomized crash schedules.
  Duration horizon = Hours(2.0);
  Duration tick = Seconds(10.0);
  Duration runtime_period = Minutes(10.0);
  Duration checkpoint_period = Minutes(5.0);
  Power load = Watts(6.0);
  int max_faults = 4;          // Fault events riding along: 1..max_faults.
  int max_crashes = 3;         // Crash events per schedule: 1..max_crashes.
  // Worker threads: 1 = serial, 0 = auto (SDB_THREADS / hardware).
  int jobs = 1;
};

// One oracle breach, with enough context to replay the schedule.
struct CrashViolation {
  uint64_t seed = 0;
  std::string check;   // Short tag, e.g. "result-divergence" or "restore".
  std::string detail;
};

// Outcome of one randomized crash schedule.
struct CrashScheduleReport {
  uint64_t seed = 0;
  int planned_crashes = 0;   // Events in the generated plan.
  int crashes_fired = 0;     // Deaths that actually hit inside the horizon.
  int warm_restarts = 0;     // Restores from a snapshot.
  int cold_restarts = 0;     // No restorable snapshot (earliest-write torn).
  int torn_writes = 0;       // Mid-write deaths that mutated the image.
  int corrupt_slots = 0;     // Present-but-invalid slots seen at restore.
  int slot_fallbacks = 0;    // Restores that used the alternate slot.
  uint64_t drift_fields = 0; // Checkpoint-vs-hardware fields reconciled.
  bool resynced = false;     // At least one boot-count handshake completed.
  bool completed = false;    // The final run covered the full horizon.
  bool identical = false;    // Final SimResult bit-identical to baseline.
  std::vector<CrashViolation> violations;  // Bounded; see violations_dropped.
  uint64_t violations_dropped = 0;
  uint64_t fingerprint = 0;  // Bit-exact digest of this schedule's result.
  // Flight-recorder journal of the crashing run (checkpoint saves,
  // corruption detections, restores, resyncs, ...). Deterministic per seed;
  // NOT part of the fingerprint.
  std::vector<obs::JournalEvent> journal;
};

struct CrashReport {
  std::vector<CrashScheduleReport> schedules;
  uint64_t total_violations = 0;
  uint64_t fingerprint = 0;  // Index-ordered merge of schedule digests.

  bool ok() const { return total_violations == 0; }
};

// Runs `config.schedules` randomized crash schedules, each against a
// never-crashed baseline of the same rig, and checks the oracle above.
CrashReport RunCrashSoak(const CrashConfig& config);

// --- Torn-write corpus ------------------------------------------------------

// The config digest the committed corpus snapshots are stamped with
// (tools/ci/make_torn_corpus.py embeds the same constant).
inline constexpr uint64_t kTornCorpusDigest = 0xC0DE50AB0B5EEDULL;

// Verdict for one corpus case directory (snap.a + snap.b).
struct CorpusCaseResult {
  std::string name;        // Case directory basename.
  bool detected = false;   // The damaged slot was rejected (CRC/schema).
  bool recovered = false;  // A valid snapshot was still loaded.
  std::string detail;      // Error/diagnostic summary for the report.

  bool ok() const { return detected && recovered; }
};

// Walks `corpus_dir` (every subdirectory holding a snap.a/snap.b pair, in
// sorted order) through CheckpointStore::LoadLastGood and checks that every
// damaged slot is detected and every case still recovers from the alternate
// slot. An empty or missing corpus is an error, not a silent pass.
StatusOr<std::vector<CorpusCaseResult>> ValidateTornCorpus(
    const std::string& corpus_dir);

// --- Exposed for tests and the fuzzer ---------------------------------------

class RecoveryRig;

// The rig crash schedule `seed` plays against: the shared recovery rig on
// the tablet pack, plus a seed-keyed user-schedule predictor and a workload
// classifier whose sections ride between runtime and sim-loop.
std::unique_ptr<RecoveryRig> MakeCrashRig(uint64_t seed, const FaultPlan& faults);

// Applies `kind`'s damage to an encoded snapshot image, deterministically
// per (kind, seed). Shared by the crash soak and the scenario fuzzer's
// crash-equivalence oracle.
void ApplyTornWrite(TornWriteKind kind, uint64_t seed, std::vector<uint8_t>& bytes);

// kSectionSimLoop codec: the driver-loop resume point, including the full
// partial SimResult. Decode is truncation-checked (kInvalidArgument).
std::vector<uint8_t> EncodeSimLoopState(const SimLoopState& state);
StatusOr<SimLoopState> DecodeSimLoopState(const std::vector<uint8_t>& bytes);

// Bit-exact SimResult comparison (the crash oracle). Returns an empty
// string when identical, else a description of the first divergent field.
// The `crashed` flag is excluded — the final resumed run reports crashed ==
// false just like the baseline, but intermediate results do not.
std::string DescribeSimResultDivergence(const SimResult& baseline,
                                        const SimResult& restored);

}  // namespace sdb

#endif  // SRC_EMU_CRASH_H_
