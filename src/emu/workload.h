// Synthetic workload generators standing in for the paper's instrumented
// devices (§4.3: a Core i5 2-in-1, a Snapdragon 800 phone and a Snapdragon
// 200 watch, each measured at 100 Hz). Each generator produces a power
// trace with the structure the corresponding scenario in §5 relies on.
#ifndef SRC_EMU_WORKLOAD_H_
#define SRC_EMU_WORKLOAD_H_

#include <string>
#include <vector>

#include "src/emu/trace.h"
#include "src/util/rng.h"

namespace sdb {

// --- Smart watch (paper §5.2, Fig. 13) --------------------------------------

struct SmartwatchDayConfig {
  Power idle = Watts(0.050);        // Always-on display + sensors.
  Power check = Watts(0.15);        // Screen-on message checking burst.
  Duration check_duration = Seconds(45.0);
  int checks_per_hour = 6;          // "spends the entire day checking messages".
  Power run = Watts(0.70);          // GPS + HR tracking while running.
  double run_start_hour = 9.0;      // Fig. 13: the run starts at hour 9.
  Duration run_duration = Hours(1.0);
  uint64_t seed = 7;
  double jitter = 0.15;             // Relative jitter on burst power/timing.
};

// A 24-hour watch day: idle baseline, periodic message-check bursts and one
// high-power run.
PowerTrace MakeSmartwatchDayTrace(const SmartwatchDayConfig& config);

// Appends that day at the end of `trace`, for multi-day builders.
void AppendSmartwatchDay(const SmartwatchDayConfig& config, PowerTrace* trace);

// --- 2-in-1 application workloads (paper §5.3, Fig. 14) ---------------------

struct NamedWorkload {
  std::string name;
  PowerTrace trace;
};

// The application mix a 2-in-1 runs: mail/browse/video/office through
// gaming and software builds; each is a multi-hour trace with idle gaps.
std::vector<NamedWorkload> MakeTwoInOneWorkloads(uint64_t seed = 11);

// --- Generic synthetic traces ------------------------------------------------

// Bursty trace: baseline power with exponential-ish bursts, for property
// tests and ablations.
PowerTrace MakeBurstyTrace(Power baseline, Power burst, double burst_fraction,
                           Duration total, Duration segment, uint64_t seed);

// Phone-style day: screen sessions, standby, a video call.
PowerTrace MakePhoneDayTrace(uint64_t seed = 23);

// Appends that day at the end of `trace`, every power multiplied by `scale`.
void AppendPhoneDay(uint64_t seed, double scale, PowerTrace* trace);

// --- §8 future-work devices ---------------------------------------------------

// Drone sortie: takeoff burst, cruise, gusty corrections, landing burst —
// sustained high power with sharp peaks (scaled to bench-size cells).
PowerTrace MakeDroneFlightTrace(Duration flight, uint64_t seed = 29);

}  // namespace sdb

#endif  // SRC_EMU_WORKLOAD_H_
