#include "src/emu/trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/emu/scenario_pack.h"
#include "src/emu/trace_io.h"
#include "src/emu/workload.h"
#include "src/util/rng.h"

namespace sdb {
namespace {

TEST(TraceTest, EmptyTraceSamplesZero) {
  PowerTrace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(5.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.TotalDuration().value(), 0.0);
}

TEST(TraceTest, AppendAndSample) {
  PowerTrace trace;
  trace.Append(Seconds(10.0), Watts(2.0));
  trace.Append(Seconds(5.0), Watts(7.0));
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(0.0)).value(), 2.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(9.99)).value(), 2.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(10.0)).value(), 7.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(14.9)).value(), 7.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(15.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.Sample(Seconds(-1.0)).value(), 0.0);
}

// Reference for the hinted sampler: a linear scan for the segment holding t.
Power LinearScanSample(const PowerTrace& trace, double t) {
  for (size_t i = 0; i < trace.segments().size(); ++i) {
    if (trace.segments()[i].start.value() <= t && t < trace.SegmentEnd(i).value()) {
      return trace.segments()[i].power;
    }
  }
  return Watts(0.0);
}

TEST(TraceTest, HintedSampleMatchesLinearScan) {
  PowerTrace trace;
  trace.Append(Seconds(10.0), Watts(2.0));
  trace.Append(Seconds(0.5), Watts(7.0));
  trace.Append(Seconds(3.0), Watts(0.0));
  trace.Append(Seconds(4.0), Watts(5.0));
  // Forward in small steps (hint hits and successor hits), then jumps
  // backwards and past the end (stale hints fall back to the search).
  std::vector<double> times;
  for (double t = -1.0; t < 20.0; t += 0.25) {
    times.push_back(t);
  }
  for (double t : {15.0, 0.0, 10.5, 17.5, 30.0, 3.0, 10.0, 13.5, -2.0, 14.0}) {
    times.push_back(t);
  }
  size_t hint = 0;
  for (double t : times) {
    EXPECT_EQ(trace.Sample(Seconds(t), &hint), LinearScanSample(trace, t)) << "t=" << t;
    EXPECT_EQ(trace.Sample(Seconds(t)), LinearScanSample(trace, t)) << "t=" << t;
  }
  size_t stale = 99;
  EXPECT_EQ(trace.Sample(Seconds(12.0), &stale), LinearScanSample(trace, 12.0));
}

TEST(TraceTest, TotalDurationAndEnergy) {
  PowerTrace trace;
  trace.Append(Minutes(1.0), Watts(3.0));
  trace.Append(Minutes(2.0), Watts(1.0));
  EXPECT_DOUBLE_EQ(trace.TotalDuration().value(), 180.0);
  EXPECT_DOUBLE_EQ(trace.TotalEnergy().value(), 3.0 * 60.0 + 1.0 * 120.0);
}

TEST(TraceTest, EnergyBetween) {
  PowerTrace trace;
  trace.Append(Seconds(10.0), Watts(2.0));
  trace.Append(Seconds(10.0), Watts(4.0));
  EXPECT_DOUBLE_EQ(trace.EnergyBetween(Seconds(5.0), Seconds(15.0)).value(),
                   5.0 * 2.0 + 5.0 * 4.0);
  EXPECT_DOUBLE_EQ(trace.EnergyBetween(Seconds(15.0), Seconds(5.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(trace.EnergyBetween(Seconds(100.0), Seconds(200.0)).value(), 0.0);
}

TEST(TraceTest, PeakPower) {
  PowerTrace trace;
  trace.Append(Seconds(1.0), Watts(2.0));
  trace.Append(Seconds(1.0), Watts(9.0));
  trace.Append(Seconds(1.0), Watts(4.0));
  EXPECT_DOUBLE_EQ(trace.PeakPower().value(), 9.0);
}

TEST(TraceTest, ConstantFactory) {
  PowerTrace trace = PowerTrace::Constant(Watts(5.0), Hours(1.0));
  EXPECT_DOUBLE_EQ(trace.Sample(Minutes(30.0)).value(), 5.0);
  EXPECT_DOUBLE_EQ(trace.TotalEnergy().value(), 5.0 * 3600.0);
}

// --- Differential test against the 24-byte layout ---------------------------
//
// LegacyPowerTrace is a frozen copy of PowerTrace as it was when every
// segment stored its own duration (start, duration, power: 24 bytes), with
// the Scaled/Concatenated builders the multi-day expanders used. The 16-byte
// layout reads a segment's end as the next start, which Append fixes as the
// same rounded sum start + duration, so every read must match bit for bit.

struct LegacySegment {
  Duration start;
  Duration duration;
  Power power;
};

class LegacyPowerTrace {
 public:
  void Append(Duration duration, Power power) {
    segments_.push_back(LegacySegment{TotalDuration(), duration, power});
  }

  Power Sample(Duration t, size_t* hint) const {
    double ts = t.value();
    if (segments_.empty() || ts < 0.0) {
      return Watts(0.0);
    }
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
            [](double value, const LegacySegment& seg) { return value < seg.start.value(); });
        if (it == segments_.begin()) {
          return Watts(0.0);
        }
        i = static_cast<size_t>(it - segments_.begin()) - 1;
      }
      *hint = i;
    }
    const LegacySegment& seg = segments_[i];
    if (ts < seg.start.value() + seg.duration.value()) {
      return seg.power;
    }
    return Watts(0.0);
  }

  Duration TotalDuration() const {
    if (segments_.empty()) {
      return Seconds(0.0);
    }
    return segments_.back().start + segments_.back().duration;
  }

  Energy TotalEnergy() const {
    Energy total = Joules(0.0);
    for (const auto& seg : segments_) {
      total += Joules(seg.power.value() * seg.duration.value());
    }
    return total;
  }

  Energy EnergyBetween(Duration from, Duration to) const {
    double lo = from.value();
    double hi = to.value();
    if (hi <= lo) {
      return Joules(0.0);
    }
    double total = 0.0;
    for (const auto& seg : segments_) {
      double s0 = seg.start.value();
      double s1 = s0 + seg.duration.value();
      double overlap = std::min(hi, s1) - std::max(lo, s0);
      if (overlap > 0.0) {
        total += seg.power.value() * overlap;
      }
    }
    return Joules(total);
  }

  Power PeakPower() const {
    Power peak = Watts(0.0);
    for (const auto& seg : segments_) {
      peak = Max(peak, seg.power);
    }
    return peak;
  }

  LegacyPowerTrace Scaled(double factor) const {
    LegacyPowerTrace out;
    for (const auto& seg : segments_) {
      out.Append(seg.duration, Watts(seg.power.value() * factor));
    }
    return out;
  }

  LegacyPowerTrace Concatenated(const LegacyPowerTrace& other) const {
    LegacyPowerTrace out = *this;
    for (const auto& seg : other.segments_) {
      out.Append(seg.duration, seg.power);
    }
    return out;
  }

  const std::vector<LegacySegment>& segments() const { return segments_; }

 private:
  std::vector<LegacySegment> segments_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// Both layouts fed the same (duration, power) stream.
struct TwinTraces {
  PowerTrace trace;
  LegacyPowerTrace legacy;

  void Append(double seconds, double watts) {
    trace.Append(Seconds(seconds), Watts(watts));
    legacy.Append(Seconds(seconds), Watts(watts));
  }
};

// A day trace rebuilt in the legacy layout from its segment lengths. The
// day traces used here start at 0 with durations whose sums are exact, so
// the lengths are the generators' own durations (the caller checks starts).
LegacyPowerTrace ToLegacy(const PowerTrace& trace) {
  LegacyPowerTrace legacy;
  for (size_t i = 0; i < trace.segments().size(); ++i) {
    legacy.Append(trace.SegmentEnd(i) - trace.segments()[i].start, trace.segments()[i].power);
  }
  return legacy;
}

void ExpectSameSegments(const PowerTrace& trace, const LegacyPowerTrace& legacy,
                        const std::string& label) {
  ASSERT_EQ(trace.segments().size(), legacy.segments().size()) << label;
  for (size_t i = 0; i < trace.segments().size(); ++i) {
    const LegacySegment& old = legacy.segments()[i];
    ASSERT_EQ(Bits(trace.segments()[i].start.value()), Bits(old.start.value()))
        << label << " segment " << i;
    ASSERT_EQ(Bits(trace.SegmentEnd(i).value()), Bits(old.start.value() + old.duration.value()))
        << label << " segment " << i;
    ASSERT_EQ(Bits(trace.segments()[i].power.value()), Bits(old.power.value()))
        << label << " segment " << i;
  }
}

void ExpectSameReads(const PowerTrace& trace, const LegacyPowerTrace& legacy,
                     const std::string& label, uint64_t seed) {
  ExpectSameSegments(trace, legacy, label);
  EXPECT_EQ(Bits(trace.TotalDuration().value()), Bits(legacy.TotalDuration().value())) << label;
  EXPECT_EQ(Bits(trace.TotalEnergy().value()), Bits(legacy.TotalEnergy().value())) << label;
  EXPECT_EQ(Bits(trace.PeakPower().value()), Bits(legacy.PeakPower().value())) << label;

  // Sample at every boundary and one ulp either side, from a correct, a
  // stale and a zero hint; the hint each leaves behind must match too.
  const size_t n = legacy.segments().size();
  std::vector<double> boundaries;
  for (const LegacySegment& seg : legacy.segments()) {
    boundaries.push_back(seg.start.value());
  }
  boundaries.push_back(legacy.TotalDuration().value());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double b : boundaries) {
    for (double t : {std::nextafter(b, -kInf), b, std::nextafter(b, kInf)}) {
      size_t correct = 0;
      legacy.Sample(Seconds(t), &correct);
      for (size_t start_hint : {correct, (correct + n / 2 + 1) % (n + 3), size_t{0}}) {
        size_t hint = start_hint;
        size_t legacy_hint = start_hint;
        const Power got = trace.Sample(Seconds(t), &hint);
        const Power want = legacy.Sample(Seconds(t), &legacy_hint);
        ASSERT_EQ(Bits(got.value()), Bits(want.value()))
            << label << " t=" << t << " hint=" << start_hint;
        ASSERT_EQ(hint, legacy_hint) << label << " t=" << t << " hint=" << start_hint;
      }
    }
  }

  // EnergyBetween over random windows (some reversed, some past either
  // end) and over windows aligned on segment boundaries.
  Rng rng(seed);
  const double end = legacy.TotalDuration().value();
  for (int k = 0; k < 200; ++k) {
    const double from = rng.Uniform(-1.0, end + 1.0);
    const double to = rng.Uniform(-1.0, end + 1.0);
    EXPECT_EQ(Bits(trace.EnergyBetween(Seconds(from), Seconds(to)).value()),
              Bits(legacy.EnergyBetween(Seconds(from), Seconds(to)).value()))
        << label << " [" << from << ", " << to << ")";
    const double lo = boundaries[rng.NextBounded(boundaries.size())];
    const double hi = boundaries[rng.NextBounded(boundaries.size())];
    EXPECT_EQ(Bits(trace.EnergyBetween(Seconds(lo), Seconds(hi)).value()),
              Bits(legacy.EnergyBetween(Seconds(lo), Seconds(hi)).value()))
        << label << " [" << lo << ", " << hi << ")";
  }
}

TEST(TraceDifferentialTest, SixteenByteLayoutReadsMatchTheTwentyFourByteOnesBitForBit) {
  // Durations whose running sums round: centiseconds (100 Hz recordings),
  // thirds, and harvest-dual-style duty fractions of a cycle, after a lead
  // segment that puts the starts at up to 1e6 s.
  enum class Family { kCentiseconds, kThirds, kDutyFractions, kMixed };
  const Family kFamilies[] = {Family::kCentiseconds, Family::kThirds, Family::kDutyFractions,
                              Family::kMixed};
  const double kLeads[] = {0.0, 999.9, 999950.5};
  uint64_t seed = 1;
  for (Family family : kFamilies) {
    for (double lead : kLeads) {
      ++seed;
      Rng rng(seed);
      TwinTraces twins;
      if (lead > 0.0) {
        twins.Append(lead, 0.05);
      }
      for (int k = 0; k < 400; ++k) {
        // Some segments draw nothing, as trace gaps do.
        const double watts = rng.NextDouble() < 0.2 ? 0.0 : rng.Uniform(0.01, 30.0);
        switch (family) {
          case Family::kCentiseconds:
            twins.Append(0.01, watts);
            break;
          case Family::kThirds:
            twins.Append(1.0 / 3.0, watts);
            break;
          case Family::kDutyFractions: {
            const double span = 60.0 * static_cast<double>(5 + rng.NextBounded(236));
            const double tx_s = span * rng.Uniform(0.05, 0.95);
            twins.Append(tx_s, watts);
            twins.Append(span - tx_s, 0.05);
            break;
          }
          case Family::kMixed: {
            const double kDurations[] = {0.01, 1.0 / 3.0, 0.7 * 1800.0, rng.Uniform(1e-3, 90.0)};
            twins.Append(kDurations[rng.NextBounded(4)], watts);
            break;
          }
        }
      }
      std::string label = "family ";
      label += std::to_string(static_cast<int>(family));
      label += " lead ";
      label += std::to_string(lead);
      ExpectSameReads(twins.trace, twins.legacy, label, seed);
    }
  }
}

// MixSeed as the pack expanders use it (frozen here: a change to it would
// reshuffle every pack's trace).
uint64_t PackDaySeed(uint64_t seed, uint64_t salt) {
  return seed ^ (salt + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
}

TEST(TraceTest, PhoneDayExpandsScaledDaysInPlaceAsConcatenatedScaledDays) {
  const uint64_t kSeed = 7;
  const double kScale = 1.3;
  auto spec = ExpandScenario("phone-day", {{"days", 2.5}, {"scale", kScale}}, kSeed);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  LegacyPowerTrace legacy;
  for (uint64_t d = 0; d < 3; ++d) {
    const PowerTrace day = MakePhoneDayTrace(PackDaySeed(kSeed, 0x0DA1ULL + d));
    const LegacyPowerTrace legacy_day = ToLegacy(day);
    ExpectSameSegments(day, legacy_day, "phone day " + std::to_string(d));
    legacy = legacy.Concatenated(legacy_day.Scaled(kScale));
  }
  ExpectSameReads(spec->load, legacy, "phone-day", kSeed);
}

TEST(TraceTest, SmartwatchDayExpandsDaysInPlaceAsConcatenatedDays) {
  const uint64_t kSeed = 3;
  auto spec = ExpandScenario("smartwatch-day", {{"days", 3.0}, {"idle_mw", 65.0}}, kSeed);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  SmartwatchDayConfig day;
  day.idle = MilliWatts(65.0);
  LegacyPowerTrace legacy;
  for (uint64_t d = 0; d < 3; ++d) {
    day.seed = PackDaySeed(kSeed, 0x5A7C4DA1ULL + d);
    const PowerTrace one_day = MakeSmartwatchDayTrace(day);
    const LegacyPowerTrace legacy_day = ToLegacy(one_day);
    ExpectSameSegments(one_day, legacy_day, "watch day " + std::to_string(d));
    legacy = legacy.Concatenated(legacy_day);
  }
  ExpectSameReads(spec->load, legacy, "smartwatch-day", kSeed);
}

// --- Memory contract ---------------------------------------------------------

static_assert(sizeof(TraceSegment) == 16, "a segment is its start and its power");

void ExpectExactCapacity(const PowerTrace& trace, const std::string& label) {
  EXPECT_EQ(trace.segments().capacity(), trace.segments().size()) << label;
}

TEST(TraceMemoryTest, ExpandedPackTracesHoldNoSpareCapacity) {
  for (const ScenarioPack& pack : ScenarioPacks()) {
    // Defaults, then the pack's length knob stretched to several days (or
    // as far as its range goes).
    std::vector<PackParams> overrides = {{}};
    for (const PackParamSpec& param : pack.params) {
      if (param.name == "days") {
        overrides.push_back({{"days", std::min(3.5, param.max_value)}});
      } else if (param.name == "hours") {
        overrides.push_back({{"hours", std::min(84.0, param.max_value)}});
      }
    }
    ASSERT_EQ(overrides.size(), 2u) << pack.name << " has no days or hours knob";
    for (const PackParams& params : overrides) {
      auto spec = ExpandScenario(pack.name, params, 5);
      ASSERT_TRUE(spec.ok()) << pack.name << ": " << spec.status().message();
      const std::string label = pack.name + (params.empty() ? " defaults" : " stretched");
      ExpectExactCapacity(spec->load, label + " load");
      ExpectExactCapacity(spec->supply, label + " supply");
    }
  }
}

TEST(TraceMemoryTest, ParsedCsvTraceHoldsNoSpareCapacity) {
  auto parsed = ParsePowerTraceCsv("seconds,watts\n5,1.0\n10,2.0\n0.01,3.5\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->segments().size(), 3u);
  ExpectExactCapacity(*parsed, "parsed csv");
}

TEST(TraceDeathTest, RejectsNonPositiveDuration) {
  PowerTrace trace;
  EXPECT_DEATH(trace.Append(Seconds(0.0), Watts(1.0)), "CHECK failed");
}

TEST(TraceDeathTest, RejectsNegativePower) {
  PowerTrace trace;
  EXPECT_DEATH(trace.Append(Seconds(1.0), Watts(-1.0)), "CHECK failed");
}

}  // namespace
}  // namespace sdb
