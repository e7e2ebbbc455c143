#include "src/emu/soak.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <optional>

#include "src/emu/harness.h"

namespace sdb {

namespace {

// Every schedule derives its rig seeds from the schedule seed alone, so a
// report line ("seed 17 violated X") is all that is needed to replay it.
constexpr uint64_t kMicroSeedSalt = 0x50AB0B5EEDULL;
// Fault events per schedule: 1..kSoakMaxFaultEvents.
constexpr int kSoakMaxFaultEvents = 6;

float ReadF32(const uint8_t* data) {
  float value;
  std::memcpy(&value, data, sizeof(value));
  return value;
}

bool IsLinkWide(FaultClass kind) {
  return kind == FaultClass::kLinkTimeout || kind == FaultClass::kLinkCorruptReply ||
         kind == FaultClass::kMicroCrash || kind == FaultClass::kMicroBrownout;
}

// What the schedule reads back from one rig run.
struct RigOutcome {
  SimResult result;
  std::vector<double> final_shares;
};

// Plays the constant load for the horizon on the tablet recovery rig and —
// when `report` is given — checks the per-tick invariants, the wire audit and
// the energy ledger into `sink` and fills the report's run fields. An empty
// `plan` runs the never-faulted baseline on the identical rig.
RigOutcome RunRig(const SoakConfig& config, uint64_t seed, const FaultPlan& plan,
                  SoakScheduleReport* report, ViolationSink* sink) {
  // The tap below reads these, so they outlive the rig that holds it.
  Duration sim_now = Seconds(0.0);
  FrameDecoder audit_decoder;
  RecoveryRig rig(TabletRigCells(), kMicroSeedSalt ^ seed, plan, HarnessRuntimeConfig());
  std::optional<TickInvariants> invariants;
  if (report != nullptr) {
    invariants.emplace(rig, sink);
    // Invariant 3, audited at the wire: a ratio-programming frame must carry
    // a (near-)zero share for every battery the runtime has quarantined at
    // the moment the frame is sent.
    rig.frame_tap = [&](const std::vector<uint8_t>& bytes) {
      std::vector<Frame> frames;
      audit_decoder.Feed(bytes, frames);
      for (const Frame& frame : frames) {
        if (frame.type != MessageType::kSetDischargeRatios &&
            frame.type != MessageType::kSetChargeRatios) {
          continue;
        }
        const std::vector<bool>& excluded = rig.runtime.excluded_batteries();
        // Mutating payloads carry a 2-byte sequence prefix before the f32s.
        for (size_t i = 0; 2 + (i + 1) * 4 <= frame.payload.size(); ++i) {
          if (i < excluded.size() && excluded[i] &&
              ReadF32(frame.payload.data() + 2 + i * 4) > 1e-6f) {
            sink->Add(sim_now, "quarantine-share",
                      "battery " + std::to_string(i) + " excluded but programmed share " +
                          std::to_string(ReadF32(frame.payload.data() + 2 + i * 4)));
          }
        }
      }
    };
  }

  SimConfig sim_config;
  sim_config.tick = config.tick;
  sim_config.runtime_period = config.runtime_period;
  sim_config.stop_on_shortfall = false;
  sim_config.on_tick = [&](const MicroTick& tick, Duration now) {
    sim_now = now;
    if (invariants.has_value()) {
      invariants->Check(tick, now);
    }
  };

  double e0 = rig.micro.pack().TotalRemainingEnergy().value();
  Simulator sim(&rig.runtime, sim_config);
  SimResult result = sim.Run(PowerTrace::Constant(config.load, config.horizon));
  double e1 = rig.micro.pack().TotalRemainingEnergy().value();

  if (report != nullptr) {
    report->completed = result.elapsed.value() >= config.horizon.value() - config.tick.value();
    if (!report->completed) {
      sink->Add(result.elapsed, "incomplete",
                "run stopped at " + std::to_string(result.elapsed.value()) + " s");
    }
    // Invariant 5: the energy ledger balances over the whole run.
    double drawn = e0 - e1;
    double accounted = result.delivered.value() + result.TotalLoss().value();
    if (!std::isfinite(accounted) ||
        std::fabs(drawn - accounted) > LedgerTolerance(Joules(drawn)).value()) {
      sink->Add(result.elapsed, "ledger",
                "drawn " + std::to_string(drawn) + " J vs accounted " +
                    std::to_string(accounted) + " J");
    }
    report->recovered = !rig.safety.AnyUnhealthy() && !rig.runtime.degraded() &&
                        !rig.micro.awaiting_resync() && !rig.micro.in_reset();
    for (size_t i = 0; i < rig.micro.battery_count(); ++i) {
      report->trips += rig.safety.trip_count(i);
      report->recoveries += rig.safety.recovery_count(i);
    }
    if (rig.micro.fault_injector() != nullptr) {
      report->reboots = rig.micro.fault_injector()->micro_reboots();
    }
    report->resyncs = rig.runtime.resilience().resyncs;
    report->replayed_commands = rig.server.replayed_commands();
  }
  return RigOutcome{std::move(result), rig.runtime.last_discharge_ratios()};
}

SoakScheduleReport RunOneSchedule(const SoakConfig& config, uint64_t seed) {
  SoakScheduleReport report;
  report.seed = seed;
  FaultPlan plan =
      MakeRandomFaultPlan(seed, kTabletRigBatteries, config.horizon, kSoakMaxFaultEvents);
  report.events = static_cast<int>(plan.events.size());

  // The never-faulted twin of the same rig gives the steady-state
  // allocation the faulted run must converge back to (invariant 6).
  RigOutcome baseline = RunRig(config, seed, FaultPlan(), nullptr, nullptr);
  // The faulted run records into a per-schedule journal; each schedule runs
  // start-to-finish on one worker thread, so the captured event sequence is
  // independent of the --jobs value.
  obs::EventJournal journal;
  obs::JournalScope journal_scope(&journal);
  ViolationSink sink;
  RigOutcome faulted = RunRig(config, seed, plan, &report, &sink);

  for (size_t i = 0;
       i < faulted.final_shares.size() && i < baseline.final_shares.size(); ++i) {
    report.max_share_delta =
        std::max(report.max_share_delta,
                 std::fabs(faulted.final_shares[i] - baseline.final_shares[i]));
  }
  if (!report.recovered) {
    sink.Add(config.horizon, "no-recovery",
             "supervisor/runtime/controller still unhealthy at end of horizon");
  } else if (report.max_share_delta > kSoakConvergenceTolerance) {
    sink.Add(config.horizon, "convergence",
             "max share delta " + std::to_string(report.max_share_delta) + " vs baseline");
  }
  for (const Breach& breach : sink.kept()) {
    report.violations.push_back(SoakViolation{seed, breach.time, breach.tag, breach.detail});
  }
  report.violations_dropped = sink.dropped();
  report.journal = journal.Snapshot();

  uint64_t h = MixU64(0, seed);
  h = MixU64(h, static_cast<uint64_t>(report.events));
  h = MixU64(h, report.completed ? 1 : 0);
  h = MixU64(h, report.recovered ? 1 : 0);
  h = MixU64(h, report.trips);
  h = MixU64(h, report.recoveries);
  h = MixU64(h, report.reboots);
  h = MixU64(h, report.resyncs);
  h = MixU64(h, report.replayed_commands);
  h = MixU64(h, static_cast<uint64_t>(report.violations.size()) +
                    report.violations_dropped);
  h = MixDouble(h, report.max_share_delta);
  h = MixDouble(h, faulted.result.delivered.value());
  for (double soc : faulted.result.final_soc) {
    h = MixDouble(h, soc);
  }
  for (double share : faulted.final_shares) {
    h = MixDouble(h, share);
  }
  report.fingerprint = h;
  return report;
}

}  // namespace

FaultPlan MakeRandomFaultPlan(uint64_t seed, int batteries, Duration horizon,
                              int max_events) {
  SDB_CHECK(batteries > 0);
  SDB_CHECK(max_events > 0);
  SDB_CHECK(horizon.value() > 0.0);
  // Distinct stream from the injector's (which re-mixes plan.seed itself).
  Rng rng(seed ^ 0x5C4EDD1E5EEDULL);
  FaultPlan plan;
  plan.seed = seed;
  const int count = 1 + static_cast<int>(rng.NextBounded(max_events));
  for (int k = 0; k < count; ++k) {
    FaultEvent event;
    event.kind = kAllFaultClasses[rng.NextBounded(std::size(kAllFaultClasses))];
    // Every window closes by 70% of the horizon so the recovery lifecycle
    // and the reintegration ramp can finish before the convergence check.
    const double start = horizon.value() * rng.Uniform(0.05, 0.45);
    const double length = horizon.value() * rng.Uniform(0.03, 0.20);
    event.start = Seconds(start);
    event.end = Seconds(std::min(start + length, horizon.value() * 0.7));
    event.battery =
        IsLinkWide(event.kind) ? -1 : static_cast<int>(rng.NextBounded(batteries));
    event.magnitude = SampleFaultMagnitude(event.kind, rng);
    event.probability = (event.kind == FaultClass::kLinkTimeout ||
                         event.kind == FaultClass::kLinkCorruptReply)
                            ? rng.Uniform(0.3, 1.0)
                            : 1.0;
    plan.Add(event);
  }
  return plan;
}

SoakReport RunSoak(const SoakConfig& config) {
  SDB_CHECK(config.schedules > 0);
  SoakReport report;
  report.schedules.resize(config.schedules);
  RunSeededSweep(config.schedules, config.jobs, [&report, &config](int64_t index) {
    report.schedules[index] =
        RunOneSchedule(config, config.base_seed + static_cast<uint64_t>(index));
  });
  for (const SoakScheduleReport& schedule : report.schedules) {
    report.total_violations += schedule.violations.size() + schedule.violations_dropped;
  }
  report.fingerprint = MergeFingerprints(report.schedules);
  return report;
}

}  // namespace sdb
