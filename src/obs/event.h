// Deterministic flight-recorder event journal: a bounded ring of typed,
// sim-time-stamped structured events (fault windows, safety trips, lifecycle
// transitions, quarantine/reintegration, reboots, policy decisions, oracle
// verdicts) emitted by the core runtime, the hardware models, and the
// emulator harnesses.
//
// Determinism rule (DESIGN.md §8/§15): the journal draws no RNG and mutates
// no simulation state. Emission sites only *read* component clocks or the
// thread-local sim clock; whether the journal is installed, absent, or
// compiled out with -DSDB_JOURNAL=0, every simulated result is bit-identical.
// Events carry no wall time at all — a journal captured from the same seed is
// byte-identical across runs and across --jobs, which is what makes
// post-mortem bundles diffable.
//
// Ownership model: journals are plain objects installed per-thread with a
// RAII JournalScope (mirroring obs::SetSimTime). Each parallel harness case
// runs its whole sim on one worker thread, so installing a per-case journal
// yields an event sequence independent of worker count. Costs when no
// journal is installed: one thread-local load per emission site.
#ifndef SRC_OBS_EVENT_H_
#define SRC_OBS_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/ring_buffer.h"

#ifndef SDB_JOURNAL
#define SDB_JOURNAL 1
#endif

namespace sdb {
namespace obs {

// The typed event taxonomy. Names (EventKindName) are the stable wire form
// used in JSONL bundles and `sdbsim blackbox` filters.
enum class EventKind : uint8_t {
  kFaultInjected,    // An injected fault window opened.
  kFaultCleared,     // An injected fault window closed.
  kSafetyTrip,       // Supervisor latched a FaultRecord (observed/limit).
  kLifecycle,        // Health transition (tripped/cool-down/probing/healthy).
  kQuarantine,       // Runtime excluded a battery from allocation.
  kReintegrate,      // Runtime readmitted a battery.
  kResync,           // Reboot handshake completed (runtime or micro side).
  kMicroReboot,      // Watchdog reboot fired.
  kMicroBrownout,    // Controller entered held-in-reset.
  kDirectiveChange,  // OS changed a charging/discharging directive.
  kPolicyDecision,   // Programmed ratio vector changed (with input ratios).
  kDegradedEnter,    // Runtime entered degraded mode.
  kDegradedExit,     // Runtime left degraded mode.
  kOracleVerdict,    // Soak invariant violation / fuzz oracle failure.
  kSimEvent,         // Simulator event (depleted, shortfall, transfer end).
  kCircuitEvent,     // Circuit-level edge (shortfall, transfer exhaustion).
  kCheckFailure,     // SDB_CHECK failed (via the check-failure handler).
  kCheckpointSave,     // A snapshot was written to an A/B slot.
  kCheckpointRestore,  // A warm restart loaded last-good state.
  kCorruptionDetected, // A slot failed CRC/version/digest validation.
};

// Stable kebab-case name for a kind ("safety-trip"); "unknown" for values
// outside the taxonomy.
const char* EventKindName(EventKind kind);

// One journal entry. `seq` is assigned by the journal at emit time and is
// monotone per journal (so eviction is detectable in a bundle); `t_s` is
// simulated seconds (< 0 when the emitter ran outside any sim timeline).
// `value`/`limit` are kind-specific numeric payloads (e.g. the observed
// reading and the limit it violated for kSafetyTrip).
struct JournalEvent {
  EventKind kind = EventKind::kSimEvent;
  uint64_t seq = 0;
  double t_s = -1.0;
  int battery = -1;    // -1 for pack/system-wide events.
  std::string what;    // Short tag: fault class, health state, oracle name.
  std::string detail;  // Free-form context (ratio vectors, messages).
  double value = 0.0;
  double limit = 0.0;
};

// Serializes one event as a single JSONL line (no trailing newline). Field
// order is fixed, numbers round-trip (%.17g), so equal events give equal
// bytes — the bundle byte-identity contract rests on this.
std::string EventToJsonl(const JournalEvent& event);

// Parses a line written by EventToJsonl. Returns false (leaving `event`
// default) on malformed input. Tolerant of unknown kinds ("unknown").
bool EventFromJsonl(const std::string& line, JournalEvent* event);

// Bounded journal: keeps the most recent `capacity` events, counts drops.
// The ring takes its storage on the first event, so a journal that records
// nothing holds none.
// Thread-safe, though the intended pattern is single-writer (the thread the
// JournalScope installed it on) with snapshots taken after the run joins.
class EventJournal {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit EventJournal(size_t capacity = kDefaultCapacity);

  // Stamps seq (and t_s from the thread-local sim clock when negative) and
  // appends, evicting the oldest event when full.
  void Emit(JournalEvent event);

  // Buffered events, oldest first.
  std::vector<JournalEvent> Snapshot() const;

  // Events accepted since construction / lost to ring eviction.
  uint64_t recorded() const;
  uint64_t dropped() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
  uint64_t next_seq_ = 0;
  RingBuffer<JournalEvent> events_;
};

// The journal installed on the calling thread (nullptr when none).
EventJournal* InstalledJournal();

// RAII install: routes this thread's EmitEvent calls into `journal` for the
// scope's lifetime, restoring the previous journal on exit (scopes nest).
class JournalScope {
 public:
  explicit JournalScope(EventJournal* journal);
  ~JournalScope();
  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;

 private:
  EventJournal* previous_;
};

// True when an emission on this thread would land somewhere. Sites guard
// event construction behind this so the uninstalled path never allocates.
inline bool JournalActive() { return InstalledJournal() != nullptr; }

// Emits into the calling thread's installed journal; no-op when none.
void EmitEvent(JournalEvent event);
void EmitEvent(EventKind kind, double t_s, int battery, std::string what,
               std::string detail = std::string(), double value = 0.0,
               double limit = 0.0);

}  // namespace obs
}  // namespace sdb

#if SDB_JOURNAL
// Emission macro for instrumentation sites: skips argument evaluation (and
// any string construction) unless a journal is installed on this thread.
// Compiled out entirely with -DSDB_JOURNAL=0.
#define SDB_JOURNAL_EVENT(...)                 \
  do {                                         \
    if (::sdb::obs::JournalActive()) {         \
      ::sdb::obs::EmitEvent(__VA_ARGS__);      \
    }                                          \
  } while (0)
#else
#define SDB_JOURNAL_EVENT(...) \
  do {                         \
  } while (0)
#endif  // SDB_JOURNAL

#endif  // SRC_OBS_EVENT_H_
