#include "src/emu/trace.h"

#include <algorithm>

#include "src/util/check.h"

namespace sdb {

void PowerTrace::Append(Duration duration, Power power) {
  SDB_CHECK(duration.value() > 0.0);
  SDB_CHECK(power.value() >= 0.0);
  segments_.push_back(TraceSegment{end_, power});
  end_ += duration;
  energy_ += Joules(power.value() * duration.value());
}

Power PowerTrace::Sample(Duration t) const {
  size_t hint = 0;
  return Sample(t, &hint);
}

Power PowerTrace::Sample(Duration t, size_t* hint) const {
  double ts = t.value();
  if (segments_.empty() || ts < 0.0) {
    return Watts(0.0);
  }
  // The segment containing ts is the last one starting at or before it. Try
  // the hinted segment, then its successor, then binary-search.
  const size_t n = segments_.size();
  auto holds = [&](size_t i) {
    return i < n && segments_[i].start.value() <= ts &&
           (i + 1 == n || ts < segments_[i + 1].start.value());
  };
  size_t i = *hint;
  if (!holds(i)) {
    if (holds(i + 1)) {
      i = i + 1;
    } else {
      auto it = std::upper_bound(
          segments_.begin(), segments_.end(), ts,
          [](double value, const TraceSegment& seg) { return value < seg.start.value(); });
      if (it == segments_.begin()) {
        return Watts(0.0);
      }
      i = static_cast<size_t>(it - segments_.begin()) - 1;
    }
    *hint = i;
  }
  if (ts < SegmentEnd(i).value()) {
    return segments_[i].power;
  }
  return Watts(0.0);
}

Energy PowerTrace::EnergyBetween(Duration from, Duration to) const {
  double lo = from.value();
  double hi = to.value();
  if (hi <= lo) {
    return Joules(0.0);
  }
  double total = 0.0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    double s0 = segments_[i].start.value();
    double s1 = SegmentEnd(i).value();
    double overlap = std::min(hi, s1) - std::max(lo, s0);
    if (overlap > 0.0) {
      total += segments_[i].power.value() * overlap;
    }
  }
  return Joules(total);
}

Power PowerTrace::PeakPower() const {
  Power peak = Watts(0.0);
  for (const auto& seg : segments_) {
    peak = Max(peak, seg.power);
  }
  return peak;
}

PowerTrace PowerTrace::Constant(Power power, Duration duration) {
  PowerTrace trace;
  trace.Append(duration, power);
  return trace;
}

}  // namespace sdb
