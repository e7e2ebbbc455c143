// Deterministic span tracer: scoped RAII spans collected into a bounded ring
// buffer, recording both simulated time and wall time.
//
// Determinism rule (DESIGN.md §8): tracing draws no RNG and mutates no
// simulation state. Spans only *read* the thread-local sim clock that the
// simulator publishes via SetSimTime; whether tracing is compiled in, enabled
// at runtime, or off entirely, every simulated result is bit-identical.
// Sim time is the primary (deterministic) correlation key; wall time is the
// secondary axis — the measurement itself.
//
// Costs when disabled: a single relaxed atomic load per span site. Compile
// out entirely with -DSDB_TRACING=0 (the macros become no-ops).
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/util/ring_buffer.h"
#include "src/util/units.h"

#ifndef SDB_TRACING
#define SDB_TRACING 1
#endif

// The thread-local sim clock below is shared infrastructure: spans and the
// event journal (src/obs/event.h) both stamp from it, so the publish macros
// compile out only when BOTH observability halves are off.
#ifndef SDB_JOURNAL
#define SDB_JOURNAL 1
#endif

namespace sdb {
namespace obs {

// Nanoseconds from a process-local monotonic clock. This is the one sanctioned
// wall-clock read in the codebase (lint rule R4 forbids raw
// std::chrono::steady_clock::now() outside src/obs/).
uint64_t MonotonicNanos();

// Small helper over MonotonicNanos for code that wants elapsed wall seconds
// (thread-pool stats, bench harnesses).
class Stopwatch {
 public:
  Stopwatch() : start_ns_(MonotonicNanos()) {}
  void Reset() { start_ns_ = MonotonicNanos(); }
  double ElapsedSeconds() const {
    return static_cast<double>(MonotonicNanos() - start_ns_) * 1e-9;
  }

 private:
  uint64_t start_ns_;
};

// A completed span. `name` and `category` must be string literals (the
// tracer stores the pointers, not copies). `sim_t_s` < 0 means the span ran
// outside any simulated timeline (e.g. sweep orchestration).
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint32_t tid = 0;
  uint64_t wall_start_ns = 0;
  uint64_t wall_dur_ns = 0;
  double sim_t_s = -1.0;
};

// Publishes the current simulated time for spans opened on this thread.
// Thread-local, so parallel Monte-Carlo shards (one sim per worker) don't
// interleave clocks. Reading it never changes it: tracing stays side-effect
// free with respect to the simulation.
void SetSimTime(Duration sim_time);
void ClearSimTime();
// The value spans will stamp; < 0 when unset.
double CurrentSimTimeSeconds();

// Stable small id for the calling thread (dense, assigned on first use);
// used as the "tid" track in trace exports.
uint32_t CurrentTraceTid();

// Process-wide collector. Recording takes a mutex (spans close at most a few
// hundred thousand times per second in our hottest sweeps, and the disabled
// path never reaches it); the buffer keeps the most recent `capacity` spans.
// The ring takes its storage on the first recorded span, so a process that
// never enables tracing holds none of it.
class Tracer {
 public:
  static Tracer& Global();

  // Runtime toggle. Spans opened while disabled record nothing.
  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Re-sizes the ring, keeping the newest spans that fit; spans evicted by
  // a shrink are counted into dropped(). recorded() is untouched, so the
  // accounting identity recorded() - dropped() == buffered count survives a
  // mid-trace resize. With no span buffered it allocates nothing.
  void SetCapacity(size_t capacity);
  void Clear();

  void Record(const TraceEvent& event);

  // Buffered spans, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  // Spans accepted since process start / lost to ring eviction.
  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  RingBuffer<TraceEvent> events_;
};

// RAII span: captures wall + sim time at open, records into the global
// tracer at close. Checks the runtime toggle once, at open.
class TraceSpan {
 public:
  TraceSpan(const char* category, const char* name) {
    if (Tracer::Global().enabled()) {
      name_ = name;
      category_ = category;
      start_ns_ = MonotonicNanos();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      TraceEvent event;
      event.name = name_;
      event.category = category_;
      event.tid = CurrentTraceTid();
      event.wall_start_ns = start_ns_;
      event.wall_dur_ns = MonotonicNanos() - start_ns_;
      event.sim_t_s = CurrentSimTimeSeconds();
      Tracer::Global().Record(event);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace sdb

#if SDB_TRACING
#define SDB_OBS_CONCAT_INNER(a, b) a##b
#define SDB_OBS_CONCAT(a, b) SDB_OBS_CONCAT_INNER(a, b)
// Opens a span covering the rest of the enclosing scope. `category` groups
// spans by layer ("core", "hw", "chem", "mc"); `name` is the specific site
// ("runtime.update"). Both must be string literals.
#define SDB_TRACE_SPAN(category, name) \
  ::sdb::obs::TraceSpan SDB_OBS_CONCAT(sdb_trace_span_, __LINE__)(category, name)
#else
#define SDB_TRACE_SPAN(category, name) \
  do {                                 \
  } while (0)
#endif  // SDB_TRACING

#if SDB_TRACING || SDB_JOURNAL
// Publishes the simulated clock for spans and journal events on this thread.
#define SDB_TRACE_SET_SIM_TIME(t) ::sdb::obs::SetSimTime(t)
// Marks the thread as outside any simulated timeline again.
#define SDB_TRACE_CLEAR_SIM_TIME() ::sdb::obs::ClearSimTime()
#else
#define SDB_TRACE_SET_SIM_TIME(t) \
  do {                            \
  } while (0)
#define SDB_TRACE_CLEAR_SIM_TIME() \
  do {                             \
  } while (0)
#endif  // SDB_TRACING || SDB_JOURNAL

#endif  // SRC_OBS_TRACE_H_
