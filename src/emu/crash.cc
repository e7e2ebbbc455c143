#include "src/emu/crash.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "src/core/checkpoint/snapshot.h"
#include "src/core/checkpoint/store.h"
#include "src/core/checkpoint/wire.h"
#include "src/emu/harness.h"
#include "src/emu/soak.h"
#include "src/os/predictor.h"
#include "src/os/workload_classifier.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace sdb {

namespace {

// Every schedule derives its rig and plans from the schedule seed alone, so
// a report line ("seed 17 diverged") is all that is needed to replay it.
constexpr uint64_t kCrashMicroSalt = 0xC4A5B0075EEDULL;
constexpr uint64_t kCrashPlanSalt = 0xCAA5FF1A55EEDULL;
constexpr uint64_t kTornWriteSalt = 0x70A2217E5EEDULL;

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

Duration TimeOfDay(Duration now) {
  return Seconds(std::fmod(now.value(), Hours(24.0).value()));
}

// kSectionPredictor payload.
template <typename Io, typename State>
Status PredictorFields(Io& io, State& s) {
  SDB_RETURN_IF_ERROR(io.Field(s.days));
  SDB_RETURN_IF_ERROR(io.Seq(s.high_days, 8, "predictor hour count"));
  return io.Field(s.power_sum_w);
}

std::vector<uint8_t> EncodePredictorState(const PredictorState& state) {
  checkpoint::ByteWriter writer;
  return writer.Finish(PredictorFields(writer, state));
}

StatusOr<PredictorState> DecodePredictorState(const std::vector<uint8_t>& bytes) {
  checkpoint::ByteReader reader(bytes);
  PredictorState state;
  return reader.Finish(PredictorFields(reader, state), state);
}

// kSectionClassifier payload: the rolling sample window, oldest first.
std::vector<uint8_t> EncodeClassifierState(const std::vector<double>& samples_w) {
  checkpoint::ByteWriter writer;
  return writer.Finish(writer.Field(samples_w));
}

StatusOr<std::vector<double>> DecodeClassifierState(const std::vector<uint8_t>& bytes) {
  checkpoint::ByteReader reader(bytes);
  std::vector<double> samples;
  return reader.Finish(reader.Field(samples), samples);
}

// The os-layer components ride on top of the shared rig: they die with the
// process like the rest of it, and checkpoint as two extra sections.
class CrashRig : public RecoveryRig {
 public:
  CrashRig(uint64_t seed, const FaultPlan& faults)
      : RecoveryRig(TabletRigCells(), kCrashMicroSalt ^ seed, faults, HarnessRuntimeConfig()) {
    // A deterministic learned schedule (pure function of the seed) so the
    // predictor hands out real hints whose countdown state rides through
    // checkpoints: three observed days with one recurring high-power hour.
    const int high_hour = static_cast<int>(seed % 24);
    for (int day = 0; day < 3; ++day) {
      std::vector<Power> hours(24, Watts(0.3));
      hours[static_cast<size_t>(high_hour)] = Watts(8.0);
      predictor.ObserveDay(hours);
    }
  }

  UserSchedulePredictor predictor;
  WorkloadClassifier classifier;

 protected:
  void SaveExtraSections(checkpoint::Snapshot& snap) const override {
    snap.AddSection(checkpoint::kSectionPredictor, EncodePredictorState(predictor.SaveState()));
    snap.AddSection(checkpoint::kSectionClassifier, EncodeClassifierState(classifier.SaveState()));
  }

  Status RestoreExtraSections(const checkpoint::Snapshot& snap) override {
    const checkpoint::Section* pred_s = snap.FindSection(checkpoint::kSectionPredictor);
    const checkpoint::Section* class_s = snap.FindSection(checkpoint::kSectionClassifier);
    if (pred_s == nullptr) return MissingSection("predictor");
    if (class_s == nullptr) return MissingSection("classifier");
    StatusOr<PredictorState> pred_state = DecodePredictorState(pred_s->bytes);
    SDB_RETURN_IF_ERROR(pred_state.status());
    StatusOr<std::vector<double>> class_state = DecodeClassifierState(class_s->bytes);
    SDB_RETURN_IF_ERROR(class_state.status());
    SDB_RETURN_IF_ERROR(predictor.RestoreState(*pred_state));
    return classifier.RestoreState(*class_state);
  }
};

// Digest of everything that shapes the rig and the run: a snapshot from a
// different seed, horizon or cadence must be rejected at load, not warmly
// restored into the wrong simulation.
uint64_t ConfigDigest(const CrashConfig& config, uint64_t seed) {
  uint64_t h = MixU64(0, 0x5DBC0F16D16E57ULL);
  h = MixU64(h, seed);
  h = MixU64(h, static_cast<uint64_t>(kTabletRigBatteries));
  h = MixDouble(h, config.horizon.value());
  h = MixDouble(h, config.tick.value());
  h = MixDouble(h, config.runtime_period.value());
  h = MixDouble(h, config.checkpoint_period.value());
  h = MixDouble(h, config.load.value());
  h = MixU64(h, static_cast<uint64_t>(config.max_faults));
  return h;
}

CrashScheduleReport RunOneCrashSchedule(const CrashConfig& config, uint64_t seed) {
  CrashScheduleReport report;
  report.seed = seed;
  FaultPlan faults =
      MakeRandomFaultPlan(seed, kTabletRigBatteries, config.horizon, config.max_faults);
  CrashPlan crashes = MakeRandomCrashPlan(seed, config.horizon, config.max_crashes);
  report.planned_crashes = static_cast<int>(crashes.events.size());

  const PowerTrace load = PowerTrace::Constant(config.load, config.horizon);
  const PowerTrace no_supply;
  WarmRestartRun run;
  run.boot = [seed, &faults] { return MakeCrashRig(seed, faults); };
  // Every life feeds the classifier each tick and refreshes the predictor's
  // workload hint at each replan boundary.
  run.sim_config = [&config](RecoveryRig& base, const SimLoopState*) {
    CrashRig* rig = static_cast<CrashRig*>(&base);
    SimConfig sim;
    sim.tick = config.tick;
    sim.runtime_period = config.runtime_period;
    sim.stop_on_shortfall = false;
    sim.on_tick = [rig](const MicroTick& tick, Duration) {
      rig->classifier.Observe(Watts(tick.discharge.delivered.value()));
    };
    sim.on_barrier = [rig](CrashBarrier barrier, Duration now) {
      if (barrier == CrashBarrier::kPreAllocate) {
        rig->runtime.SetWorkloadHint(rig->predictor.PredictNext(TimeOfDay(now)));
      }
      return true;
    };
    return sim;
  };
  run.load = &load;
  run.supply = &no_supply;
  auto classifier_window = [](const WarmRestartOutcome& out) {
    return static_cast<const CrashRig&>(*out.rig).classifier.SaveState();
  };

  // The never-crashed twin: the same driver with no crash events and no
  // checkpointing. Saving state is const, so its absence cannot perturb it.
  ViolationSink sink;
  const WarmRestartOutcome baseline = RunWithWarmRestarts(run, &sink);

  // The crashing run records into a per-schedule journal; each schedule runs
  // start-to-finish on one worker, so the captured sequence is jobs-invariant.
  obs::EventJournal journal;
  obs::JournalScope journal_scope(&journal);
  const Duration no_time = Seconds(-1.0);
  run.crashes = crashes.events;
  run.checkpoint_period = config.checkpoint_period;
  run.config_digest = ConfigDigest(config, seed);
  run.torn_seed = seed ^ kTornWriteSalt;
  WarmRestartOutcome out = RunWithWarmRestarts(run, &sink);
  if (!out.restore.ok()) {
    sink.Add(no_time, "restore", out.restore.ToString());
  }
  report.crashes_fired = out.crashes_fired;
  report.warm_restarts = out.warm_restarts;
  report.cold_restarts = out.cold_restarts;
  report.torn_writes = out.torn_writes;
  report.corrupt_slots = out.corrupt_slots;
  report.slot_fallbacks = out.slot_fallbacks;
  report.drift_fields = out.drift_fields;
  report.resynced = out.resynced;
  const SimResult& result = out.result;
  // A run stopped by a failed restore has no final classifier window.
  const std::vector<double> final_classifier =
      result.crashed ? std::vector<double>() : classifier_window(out);

  report.completed =
      result.elapsed.value() >= config.horizon.value() - config.tick.value();
  if (!report.completed) {
    sink.Add(no_time, "incomplete",
             "final run stopped at " + std::to_string(result.elapsed.value()) + " s");
  }
  std::string divergence = DescribeSimResultDivergence(baseline.result, result);
  report.identical = divergence.empty();
  if (!report.identical) {
    sink.Add(no_time, "result-divergence", divergence);
  }
  if (final_classifier != classifier_window(baseline)) {
    sink.Add(no_time, "classifier-divergence",
             "restored classifier window differs from baseline (" +
                 std::to_string(final_classifier.size()) + " vs " +
                 std::to_string(classifier_window(baseline).size()) + " samples)");
  }
  for (const Breach& breach : sink.kept()) {
    report.violations.push_back(CrashViolation{seed, breach.tag, breach.detail});
  }
  report.violations_dropped = sink.dropped();
  report.journal = journal.Snapshot();

  uint64_t h = MixU64(0, seed);
  h = MixU64(h, static_cast<uint64_t>(report.planned_crashes));
  h = MixU64(h, static_cast<uint64_t>(report.crashes_fired));
  h = MixU64(h, static_cast<uint64_t>(report.warm_restarts));
  h = MixU64(h, static_cast<uint64_t>(report.cold_restarts));
  h = MixU64(h, static_cast<uint64_t>(report.torn_writes));
  h = MixU64(h, static_cast<uint64_t>(report.corrupt_slots));
  h = MixU64(h, static_cast<uint64_t>(report.slot_fallbacks));
  h = MixU64(h, report.drift_fields);
  h = MixU64(h, report.resynced ? 1 : 0);
  h = MixU64(h, report.completed ? 1 : 0);
  h = MixU64(h, report.identical ? 1 : 0);
  h = MixU64(h, static_cast<uint64_t>(report.violations.size()));
  h = MixDouble(h, result.elapsed.value());
  h = MixDouble(h, result.delivered.value());
  h = MixDouble(h, result.battery_loss.value());
  h = MixDouble(h, result.circuit_loss.value());
  h = MixDouble(h, result.charged.value());
  h = MixU64(h, static_cast<uint64_t>(result.update_failures));
  for (double soc : result.final_soc) {
    h = MixDouble(h, soc);
  }
  h = MixU64(h, result.events.size());
  h = MixU64(h, result.hourly.size());
  h = MixU64(h, final_classifier.size());
  report.fingerprint = h;
  return report;
}

}  // namespace

std::unique_ptr<RecoveryRig> MakeCrashRig(uint64_t seed, const FaultPlan& faults) {
  return std::make_unique<CrashRig>(seed, faults);
}

void ApplyTornWrite(TornWriteKind kind, uint64_t seed, std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  Rng rng(seed);
  switch (kind) {
    case TornWriteKind::kNone:
      break;
    case TornWriteKind::kTruncate:
      bytes.resize(static_cast<size_t>(rng.NextBounded(bytes.size())));
      break;
    case TornWriteKind::kZeroRange: {
      size_t start = static_cast<size_t>(rng.NextBounded(bytes.size()));
      size_t length =
          1 + static_cast<size_t>(rng.NextBounded(bytes.size() - start));
      std::fill(bytes.begin() + static_cast<ptrdiff_t>(start),
                bytes.begin() + static_cast<ptrdiff_t>(start + length),
                static_cast<uint8_t>(0));
      break;
    }
    case TornWriteKind::kBitFlip: {
      size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[pos] = static_cast<uint8_t>(bytes[pos] ^
                                        (1u << rng.NextBounded(8)));
      break;
    }
  }
}

std::string_view TornWriteKindName(TornWriteKind kind) {
  switch (kind) {
    case TornWriteKind::kNone:
      return "none";
    case TornWriteKind::kTruncate:
      return "truncate";
    case TornWriteKind::kZeroRange:
      return "zero-range";
    case TornWriteKind::kBitFlip:
      return "bit-flip";
  }
  return "unknown";
}

CrashPlan MakeRandomCrashPlan(uint64_t seed, Duration horizon, int max_crashes) {
  SDB_CHECK(max_crashes > 0);
  SDB_CHECK(horizon.value() > 0.0);
  Rng rng(seed ^ kCrashPlanSalt);
  CrashPlan plan;
  plan.seed = seed;
  const int count = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(max_crashes)));
  for (int k = 0; k < count; ++k) {
    CrashEvent event;
    event.time = Seconds(horizon.value() * rng.Uniform(0.05, 0.90));
    switch (rng.NextBounded(3)) {
      case 0:
        event.barrier = CrashBarrier::kPreAllocate;
        break;
      case 1:
        event.barrier = CrashBarrier::kPostAllocate;
        break;
      default:
        event.barrier = CrashBarrier::kMidCheckpointWrite;
        event.torn = static_cast<TornWriteKind>(rng.NextBounded(4));
        break;
    }
    plan.events.push_back(event);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              if (a.time.value() < b.time.value()) return true;
              if (b.time.value() < a.time.value()) return false;
              return static_cast<int>(a.barrier) < static_cast<int>(b.barrier);
            });
  return plan;
}

CrashReport RunCrashSoak(const CrashConfig& config) {
  SDB_CHECK(config.schedules > 0);
  SDB_CHECK(config.checkpoint_period.value() > 0.0);
  CrashReport report;
  report.schedules.resize(static_cast<size_t>(config.schedules));
  RunSeededSweep(config.schedules, config.jobs, [&report, &config](int64_t index) {
    report.schedules[static_cast<size_t>(index)] =
        RunOneCrashSchedule(config, config.base_seed + static_cast<uint64_t>(index));
  });
  for (const CrashScheduleReport& schedule : report.schedules) {
    report.total_violations += schedule.violations.size() + schedule.violations_dropped;
  }
  report.fingerprint = MergeFingerprints(report.schedules);
  return report;
}

StatusOr<std::vector<CorpusCaseResult>> ValidateTornCorpus(
    const std::string& corpus_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(corpus_dir, ec)) {
    return NotFoundError("crash corpus: " + corpus_dir + " is not a directory");
  }
  std::vector<std::string> cases;
  for (fs::directory_iterator it(corpus_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_directory()) {
      cases.push_back(it->path().filename().string());
    }
  }
  if (ec) {
    return UnavailableError("crash corpus: cannot walk " + corpus_dir + ": " +
                            ec.message());
  }
  if (cases.empty()) {
    return InvalidArgumentError("crash corpus: no case directories in " +
                                corpus_dir);
  }
  std::sort(cases.begin(), cases.end());

  std::vector<CorpusCaseResult> results;
  results.reserve(cases.size());
  for (const std::string& name : cases) {
    CorpusCaseResult result;
    result.name = name;
    checkpoint::FileSlotDevice device(corpus_dir + "/" + name);
    checkpoint::CheckpointStore store(&device, kTornCorpusDigest);
    StatusOr<checkpoint::LoadResult> loaded = store.LoadLastGood();
    if (loaded.ok()) {
      result.recovered = true;
      result.detected = loaded->corrupt_slots > 0;
      for (const checkpoint::SlotDiagnostic& diag : loaded->diagnostics) {
        if (diag.present && !diag.valid) {
          if (!result.detail.empty()) {
            result.detail += "; ";
          }
          result.detail += diag.error;
        }
      }
      if (!result.detected) {
        result.detail = "no slot was rejected (case holds no damage?)";
      }
    } else {
      // Both slots rejected (or unreadable): the damage was detected but the
      // case failed to keep a good alternate — a corpus-integrity failure.
      result.detected = true;
      result.recovered = false;
      result.detail = loaded.status().ToString();
    }
    results.push_back(std::move(result));
  }
  return results;
}

namespace {

// kSectionSimLoop payload.
template <typename Io, typename Event>
Status SimEventFields(Io& io, Event& event) {
  // A plain byte rather than Enum: this check's message names the byte.
  uint8_t kind = static_cast<uint8_t>(event.kind);
  SDB_RETURN_IF_ERROR(io.Field(kind));
  if constexpr (Io::kReads) {
    if (kind > static_cast<uint8_t>(SimEventKind::kTransferEnded)) {
      return InvalidArgumentError("checkpoint: sim event kind " + std::to_string(kind) +
                                  " out of range");
    }
    event.kind = static_cast<SimEventKind>(kind);
  }
  return io.Fields(event.time, event.battery);
}

template <typename Io, typename Hour>
Status HourlyFields(Io& io, Hour& hour) {
  return io.Fields(hour.load_energy, hour.battery_loss, hour.circuit_loss, hour.degraded,
                   hour.link_retries, hour.link_failures, hour.stale_updates);
}

template <typename Io, typename State>
Status SimLoopFields(Io& io, State& s) {
  auto& partial = s.partial;
  SDB_RETURN_IF_ERROR(io.Fields(s.t, s.next_replan, s.next_checkpoint, s.transfer_was_active,
                                partial.elapsed, partial.first_shortfall, partial.delivered,
                                partial.battery_loss, partial.circuit_loss, partial.charged,
                                partial.final_soc));
  SDB_RETURN_IF_ERROR(io.Seq(partial.depletion_time, 9, "depletion count"));
  SDB_RETURN_IF_ERROR(io.Seq(partial.events, 17, "event count",
                             [&io](auto& event) { return SimEventFields(io, event); }));
  SDB_RETURN_IF_ERROR(io.Seq(partial.hourly, 49, "hourly count",
                             [&io](auto& hour) { return HourlyFields(io, hour); }));
  return io.Field(partial.update_failures);
}

}  // namespace

std::vector<uint8_t> EncodeSimLoopState(const SimLoopState& state) {
  checkpoint::ByteWriter writer;
  return writer.Finish(SimLoopFields(writer, state));
}

StatusOr<SimLoopState> DecodeSimLoopState(const std::vector<uint8_t>& bytes) {
  checkpoint::ByteReader reader(bytes);
  SimLoopState state;
  return reader.Finish(SimLoopFields(reader, state), state);
}

std::string DescribeSimResultDivergence(const SimResult& baseline,
                                        const SimResult& restored) {
  if (!SameBits(baseline.elapsed.value(), restored.elapsed.value())) {
    return "elapsed: " + std::to_string(baseline.elapsed.value()) + " vs " +
           std::to_string(restored.elapsed.value());
  }
  if (baseline.first_shortfall.has_value() != restored.first_shortfall.has_value() ||
      (baseline.first_shortfall.has_value() &&
       !SameBits(baseline.first_shortfall->value(), restored.first_shortfall->value()))) {
    return "first_shortfall differs";
  }
  if (!SameBits(baseline.delivered.value(), restored.delivered.value())) {
    return "delivered: " + std::to_string(baseline.delivered.value()) + " vs " +
           std::to_string(restored.delivered.value());
  }
  if (!SameBits(baseline.battery_loss.value(), restored.battery_loss.value())) {
    return "battery_loss: " + std::to_string(baseline.battery_loss.value()) + " vs " +
           std::to_string(restored.battery_loss.value());
  }
  if (!SameBits(baseline.circuit_loss.value(), restored.circuit_loss.value())) {
    return "circuit_loss: " + std::to_string(baseline.circuit_loss.value()) + " vs " +
           std::to_string(restored.circuit_loss.value());
  }
  if (!SameBits(baseline.charged.value(), restored.charged.value())) {
    return "charged: " + std::to_string(baseline.charged.value()) + " vs " +
           std::to_string(restored.charged.value());
  }
  if (baseline.final_soc.size() != restored.final_soc.size()) {
    return "final_soc size differs";
  }
  for (size_t i = 0; i < baseline.final_soc.size(); ++i) {
    if (!SameBits(baseline.final_soc[i], restored.final_soc[i])) {
      return "final_soc[" + std::to_string(i) + "]: " +
             std::to_string(baseline.final_soc[i]) + " vs " +
             std::to_string(restored.final_soc[i]);
    }
  }
  if (baseline.depletion_time.size() != restored.depletion_time.size()) {
    return "depletion_time size differs";
  }
  for (size_t i = 0; i < baseline.depletion_time.size(); ++i) {
    const auto& a = baseline.depletion_time[i];
    const auto& b = restored.depletion_time[i];
    if (a.has_value() != b.has_value() ||
        (a.has_value() && !SameBits(a->value(), b->value()))) {
      return "depletion_time[" + std::to_string(i) + "] differs";
    }
  }
  if (baseline.events.size() != restored.events.size()) {
    return "event count: " + std::to_string(baseline.events.size()) + " vs " +
           std::to_string(restored.events.size());
  }
  for (size_t i = 0; i < baseline.events.size(); ++i) {
    const SimEvent& a = baseline.events[i];
    const SimEvent& b = restored.events[i];
    if (a.kind != b.kind || a.battery != b.battery ||
        !SameBits(a.time.value(), b.time.value())) {
      return "event[" + std::to_string(i) + "] differs";
    }
  }
  if (baseline.hourly.size() != restored.hourly.size()) {
    return "hourly count: " + std::to_string(baseline.hourly.size()) + " vs " +
           std::to_string(restored.hourly.size());
  }
  for (size_t i = 0; i < baseline.hourly.size(); ++i) {
    const HourlyStats& a = baseline.hourly[i];
    const HourlyStats& b = restored.hourly[i];
    if (!SameBits(a.load_energy.value(), b.load_energy.value()) ||
        !SameBits(a.battery_loss.value(), b.battery_loss.value()) ||
        !SameBits(a.circuit_loss.value(), b.circuit_loss.value()) ||
        a.degraded != b.degraded || a.link_retries != b.link_retries ||
        a.link_failures != b.link_failures || a.stale_updates != b.stale_updates) {
      return "hourly[" + std::to_string(i) + "] differs";
    }
  }
  if (baseline.update_failures != restored.update_failures) {
    return "update_failures: " + std::to_string(baseline.update_failures) + " vs " +
           std::to_string(restored.update_failures);
  }
  return std::string();
}

}  // namespace sdb
