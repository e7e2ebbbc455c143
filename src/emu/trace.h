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

// One constant-power segment.
struct TraceSegment {
  Duration start;
  Duration duration;
  Power power;
};

class PowerTrace {
 public:
  PowerTrace() = default;

  // Appends a segment at the current end of the trace.
  void Append(Duration duration, Power power);

  // Power at absolute time t (zero before the start and after the end).
  Power Sample(Duration t) const;

  // Sample(t) with a caller-held segment hint, for callers that walk time
  // forward. The hint is used only when it names the segment containing t,
  // so the result never depends on it; a stale hint costs a binary search.
  Power Sample(Duration t, size_t* hint) const;

  Duration TotalDuration() const;

  // Energy of the whole trace.
  Energy TotalEnergy() const;

  // Energy within [from, to).
  Energy EnergyBetween(Duration from, Duration to) const;

  Power PeakPower() const;

  bool empty() const { return segments_.empty(); }
  const std::vector<TraceSegment>& segments() const { return segments_; }

  // A constant trace.
  static PowerTrace Constant(Power power, Duration duration);

  // Scales every segment's power by `factor`.
  PowerTrace Scaled(double factor) const;

  // Concatenates `other` after this trace.
  PowerTrace Concatenated(const PowerTrace& other) const;

 private:
  std::vector<TraceSegment> segments_;
};

}  // namespace sdb

#endif  // SRC_EMU_TRACE_H_
