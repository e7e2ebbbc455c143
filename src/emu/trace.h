// Power traces: piecewise-constant power-vs-time series. The paper's
// devices were instrumented for 100 Hz power-draw measurements that were
// fed into the emulator (§4.3); our workload generators synthesise the same
// shape of input.
#ifndef SRC_EMU_TRACE_H_
#define SRC_EMU_TRACE_H_

#include <cstddef>
#include <vector>

#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// One constant-power segment. It ends where the next segment starts, or at
// the trace's end for the last one (PowerTrace::SegmentEnd).
struct TraceSegment {
  Duration start;
  Power power;
};

class PowerTrace {
 public:
  PowerTrace() = default;

  // Appends a segment at the current end of the trace. The next segment's
  // start is the rounded sum end + duration, so SegmentEnd is exactly the
  // double a stored start + duration would give.
  void Append(Duration duration, Power power);

  // Drops spare capacity, for a trace that is complete.
  void ShrinkToFit() { segments_.shrink_to_fit(); }

  // Power at absolute time t (zero before the start and after the end).
  Power Sample(Duration t) const;

  // Sample(t) with a caller-held segment hint, for callers that walk time
  // forward. The hint is used only when it names the segment containing t,
  // so the result never depends on it; a stale hint costs a binary search.
  Power Sample(Duration t, size_t* hint) const;

  // End of segment i: the next segment's start, or the trace's end.
  Duration SegmentEnd(size_t i) const {
    return i + 1 < segments_.size() ? segments_[i + 1].start : end_;
  }

  Duration TotalDuration() const { return end_; }

  // Energy of the whole trace: the in-order sum of power × duration.
  Energy TotalEnergy() const { return energy_; }

  // Energy within [from, to).
  Energy EnergyBetween(Duration from, Duration to) const;

  Power PeakPower() const;

  bool empty() const { return segments_.empty(); }
  const std::vector<TraceSegment>& segments() const { return segments_; }

  // A constant trace.
  static PowerTrace Constant(Power power, Duration duration);

 private:
  std::vector<TraceSegment> segments_;
  Duration end_;
  Energy energy_;
};

}  // namespace sdb

#endif  // SRC_EMU_TRACE_H_
