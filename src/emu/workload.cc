#include "src/emu/workload.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace sdb {

PowerTrace MakeSmartwatchDayTrace(const SmartwatchDayConfig& config) {
  PowerTrace trace;
  AppendSmartwatchDay(config, &trace);
  return trace;
}

void AppendSmartwatchDay(const SmartwatchDayConfig& config, PowerTrace* trace) {
  SDB_CHECK(config.checks_per_hour >= 0);
  SDB_CHECK(config.run_start_hour >= 0.0 && config.run_start_hour < 24.0);
  Rng rng(config.seed);

  double run_start_s = Hours(config.run_start_hour).value();
  double run_end_s = run_start_s + config.run_duration.value();

  // Build minute-resolution segments over 24 hours.
  const double kStep = 60.0;
  const int kMinutes = 24 * 60;
  // Pre-place message checks: `checks_per_hour` per hour at jittered minutes.
  std::vector<double> check_power(kMinutes, 0.0);
  for (int hour = 0; hour < 24; ++hour) {
    for (int k = 0; k < config.checks_per_hour; ++k) {
      int minute = hour * 60 + static_cast<int>(rng.NextBounded(60));
      double burst = config.check.value() * (1.0 + rng.Uniform(-config.jitter, config.jitter));
      double fraction = std::min(1.0, config.check_duration.value() / kStep);
      check_power[minute] = std::max(check_power[minute], burst * fraction);
    }
  }
  for (int m = 0; m < kMinutes; ++m) {
    double t0 = m * kStep;
    double p = config.idle.value() + check_power[m];
    if (t0 >= run_start_s && t0 < run_end_s) {
      p += config.run.value() * (1.0 + rng.Uniform(-config.jitter / 2.0, config.jitter / 2.0));
    }
    trace->Append(Seconds(kStep), Watts(p));
  }
}

namespace {

// Alternates active power with short idle dips, the texture of real app
// sessions; `hours` of content at minute granularity.
PowerTrace MakeAppTrace(double active_w, double idle_w, double duty, double hours, Rng& rng) {
  PowerTrace trace;
  int minutes = static_cast<int>(hours * 60.0);
  for (int m = 0; m < minutes; ++m) {
    bool active = rng.NextDouble() < duty;
    double p = active ? active_w * (1.0 + rng.Uniform(-0.1, 0.1)) : idle_w;
    trace.Append(Seconds(60.0), Watts(p));
  }
  return trace;
}

}  // namespace

std::vector<NamedWorkload> MakeTwoInOneWorkloads(uint64_t seed) {
  Rng rng(seed);
  std::vector<NamedWorkload> workloads;
  struct Spec {
    const char* name;
    double active_w;
    double duty;
    double hours;
  };
  // Representative 2-in-1 application mixes (Fig. 14's x-axis).
  const Spec kSpecs[] = {
      {"email", 8.0, 0.70, 4.0},        {"browsing", 10.0, 0.80, 4.0},
      {"video-playback", 11.0, 0.95, 3.0}, {"office", 9.0, 0.75, 4.0},
      {"video-call", 12.0, 0.90, 2.0},  {"music", 7.0, 0.90, 5.0},
      {"photo-edit", 14.0, 0.80, 2.5},  {"gaming", 18.0, 0.90, 2.0},
      {"software-build", 20.0, 0.85, 1.5}, {"mixed-day", 10.0, 0.75, 5.0},
  };
  const double kIdleW = 3.0;
  for (const Spec& spec : kSpecs) {
    workloads.push_back(
        NamedWorkload{spec.name, MakeAppTrace(spec.active_w, kIdleW, spec.duty, spec.hours, rng)});
  }
  return workloads;
}

PowerTrace MakeBurstyTrace(Power baseline, Power burst, double burst_fraction, Duration total,
                           Duration segment, uint64_t seed) {
  SDB_CHECK(burst_fraction >= 0.0 && burst_fraction <= 1.0);
  SDB_CHECK(segment.value() > 0.0);
  Rng rng(seed);
  PowerTrace trace;
  double elapsed = 0.0;
  while (elapsed < total.value()) {
    bool bursting = rng.NextDouble() < burst_fraction;
    trace.Append(segment, bursting ? burst : baseline);
    elapsed += segment.value();
  }
  return trace;
}

PowerTrace MakePhoneDayTrace(uint64_t seed) {
  PowerTrace trace;
  AppendPhoneDay(seed, 1.0, &trace);
  return trace;
}

void AppendPhoneDay(uint64_t seed, double scale, PowerTrace* trace) {
  Rng rng(seed);
  // 16 waking hours: standby with screen sessions and one long call.
  for (int hour = 0; hour < 16; ++hour) {
    for (int slot = 0; slot < 12; ++slot) {  // 5-minute slots.
      double p = 0.04;                       // Standby.
      double roll = rng.NextDouble();
      if (hour == 11 && slot < 6) {
        p = 2.6;  // Midday video call.
      } else if (roll < 0.25) {
        p = 1.2 * (1.0 + rng.Uniform(-0.2, 0.2));  // Screen-on session.
      } else if (roll < 0.35) {
        p = 0.5;  // Background sync.
      }
      trace->Append(Minutes(5.0), Watts(p * scale));
    }
  }
}

PowerTrace MakeDroneFlightTrace(Duration flight, uint64_t seed) {
  SDB_CHECK(flight.value() > 0.0);
  Rng rng(seed);
  PowerTrace trace;
  // Takeoff: 15 s at peak power.
  trace.Append(Seconds(15.0), Watts(24.0));
  double cruise_s = std::max(0.0, flight.value() - 30.0);
  double elapsed = 0.0;
  while (elapsed < cruise_s) {
    double seg = std::min(10.0, cruise_s - elapsed);
    // Cruise with gust corrections.
    double p = 12.0 * (1.0 + rng.Uniform(-0.1, 0.1));
    if (rng.NextDouble() < 0.15) {
      p += 8.0;  // Gust correction burst.
    }
    trace.Append(Seconds(seg), Watts(p));
    elapsed += seg;
  }
  // Landing burst.
  trace.Append(Seconds(15.0), Watts(20.0));
  return trace;
}

}  // namespace sdb
