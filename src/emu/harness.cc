#include "src/emu/harness.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/chem/library.h"
#include "src/core/checkpoint/rig_codec.h"
#include "src/core/checkpoint/store.h"
#include "src/obs/event.h"
#include "src/util/thread_pool.h"

namespace sdb {

namespace {

std::vector<SafetyLimits> DeriveRigLimits(const SdbMicrocontroller& micro) {
  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  return limits;
}

RecoveryConfig HarnessRecovery() {
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.base_dwell = Minutes(3.0);
  recovery.dwell_backoff = 2.0;
  recovery.max_dwell = Minutes(12.0);
  recovery.probe_duration = Minutes(2.0);
  return recovery;
}

}  // namespace

double SampleFaultMagnitude(FaultClass kind, Rng& rng) {
  switch (kind) {
    case FaultClass::kGaugeBias:
      return rng.Uniform(-0.3, 0.3);
    case FaultClass::kGaugeNoise:
      return rng.Uniform(5.0, 25.0);
    case FaultClass::kRegulatorCollapse:
      return rng.Uniform(0.5, 0.9);
    case FaultClass::kThermalTrip:
      return Celsius(rng.Uniform(62.0, 75.0)).value();
    default:
      return 0.0;
  }
}

void RunSeededSweep(int64_t count, int jobs, const std::function<void(int64_t)>& run_one) {
  std::optional<ThreadPool> pool;
  if (jobs != 1 && count > 1) {
    pool.emplace(jobs);
  }
  ParallelFor(pool.has_value() ? &*pool : nullptr, count, [&run_one](int64_t index) {
    // Hermetic: a slot never emits into a journal its caller installed (the
    // --flight-out process journal when slots run inline), so what an outer
    // journal holds cannot depend on how the slots were spread over threads.
    obs::JournalScope silence(nullptr);
    run_one(index);
  });
}

void ViolationSink::Add(Duration at, std::string_view tag, std::string detail) {
  SDB_JOURNAL_EVENT(obs::EventKind::kOracleVerdict, at.value(), -1, std::string(tag), detail);
  if (kept_.size() >= kMaxKept) {
    ++dropped_;
    return;
  }
  kept_.push_back(Breach{at, std::string(tag), std::move(detail)});
}

RuntimeConfig HarnessRuntimeConfig() {
  RuntimeConfig config;
  config.reintegration_horizon = Minutes(10.0);
  return config;
}

std::vector<Cell> TabletRigCells() {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  return cells;
}

RecoveryRig::RecoveryRig(std::vector<Cell> cells, uint64_t micro_seed, const FaultPlan& faults,
                         const RuntimeConfig& runtime_config)
    : micro(MakeDefaultMicrocontroller(std::move(cells), micro_seed)),
      safety(DeriveRigLimits(micro), HarnessRecovery()),
      server(&micro),
      client([this](const std::vector<uint8_t>& bytes) {
        if (frame_tap) {
          frame_tap(bytes);
        }
        return server.Receive(bytes);
      }),
      runtime(&micro, runtime_config) {
  micro.AttachSafety(&safety);
  // Installed once, before the injector attaches to the link: SimConfig.faults
  // stays empty, so a warm restart never re-installs a fresh plan over the
  // restored injector clock/RNG.
  if (!faults.events.empty()) {
    micro.InstallFaults(faults);
  }
  client.AttachFaultInjector(micro.fault_injector());
  runtime.AttachLink(&client);
}

checkpoint::Snapshot RecoveryRig::SaveSnapshot(const SimLoopState& state) const {
  checkpoint::Snapshot snap;
  snap.AddSection(checkpoint::kSectionMicro, checkpoint::EncodeMicroState(micro.SaveState()));
  snap.AddSection(checkpoint::kSectionSafety,
                  checkpoint::EncodeSupervisorState(safety.SaveState()));
  snap.AddSection(checkpoint::kSectionLink,
                  checkpoint::EncodeLinkState({client.SaveState(), server.SaveState()}));
  snap.AddSection(checkpoint::kSectionRuntime, checkpoint::EncodeRuntimeState(runtime.SaveState()));
  SaveExtraSections(snap);
  snap.AddSection(checkpoint::kSectionSimLoop, EncodeSimLoopState(state));
  return snap;
}

Status MissingSection(const char* name) {
  return InvalidArgumentError(std::string("checkpoint: snapshot is missing the ") +
                              name + " section");
}

Status RecoveryRig::RestoreSnapshot(const checkpoint::Snapshot& snap, RestoreReport* resync,
                                    SimLoopState* loop) {
  const checkpoint::Section* micro_s = snap.FindSection(checkpoint::kSectionMicro);
  const checkpoint::Section* safety_s = snap.FindSection(checkpoint::kSectionSafety);
  const checkpoint::Section* link_s = snap.FindSection(checkpoint::kSectionLink);
  const checkpoint::Section* runtime_s = snap.FindSection(checkpoint::kSectionRuntime);
  const checkpoint::Section* loop_s = snap.FindSection(checkpoint::kSectionSimLoop);
  if (micro_s == nullptr) return MissingSection("microcontroller");
  if (safety_s == nullptr) return MissingSection("safety");
  if (link_s == nullptr) return MissingSection("link");
  if (runtime_s == nullptr) return MissingSection("runtime");
  if (loop_s == nullptr) return MissingSection("sim-loop");

  StatusOr<MicroState> micro_state = checkpoint::DecodeMicroState(micro_s->bytes);
  SDB_RETURN_IF_ERROR(micro_state.status());
  StatusOr<SafetySupervisor::SupervisorState> safety_state =
      checkpoint::DecodeSupervisorState(safety_s->bytes);
  SDB_RETURN_IF_ERROR(safety_state.status());
  StatusOr<checkpoint::LinkState> link_state = checkpoint::DecodeLinkState(link_s->bytes);
  SDB_RETURN_IF_ERROR(link_state.status());
  StatusOr<RuntimeState> runtime_state = checkpoint::DecodeRuntimeState(runtime_s->bytes);
  SDB_RETURN_IF_ERROR(runtime_state.status());
  StatusOr<SimLoopState> loop_state = DecodeSimLoopState(loop_s->bytes);
  SDB_RETURN_IF_ERROR(loop_state.status());
  SDB_RETURN_IF_ERROR(RestoreExtraSections(snap));

  // Hardware first: the emulated controller just power-cycled, so after its
  // state is back it must demand the boot-count handshake the runtime's
  // RestoreAndResync completes below.
  SDB_RETURN_IF_ERROR(micro.RestoreState(*micro_state));
  micro.RequireResync();
  SDB_RETURN_IF_ERROR(safety.RestoreState(*safety_state));
  server.RestoreState(link_state->server);
  client.RestoreState(link_state->client);
  StatusOr<RestoreReport> resynced = runtime.RestoreAndResync(*runtime_state);
  SDB_RETURN_IF_ERROR(resynced.status());
  *resync = *resynced;
  *loop = std::move(*loop_state);
  return Status::Ok();
}

TickInvariants::TickInvariants(const RecoveryRig& rig, ViolationSink* sink)
    : rig_(&rig), sink_(sink), prev_faulted_(rig.micro.battery_count(), false) {
  for (size_t i = 0; i < rig.micro.battery_count(); ++i) {
    prev_cycles_.push_back(rig.micro.pack().cell(i).aging().cycle_count());
  }
}

void TickInvariants::Check(const MicroTick& tick, Duration now) {
  for (size_t i = 0; i < rig_->micro.battery_count(); ++i) {
    const Cell& cell = rig_->micro.pack().cell(i);
    double discharge_a =
        i < tick.discharge.currents.size() ? std::fabs(tick.discharge.currents[i].value()) : 0.0;
    double charge_a =
        i < tick.charge.currents.size() ? std::fabs(tick.charge.currents[i].value()) : 0.0;
    CheckBattery(i, now, cell.soc(), cell.aging().cycle_count(),
                 Amps(std::max(discharge_a, charge_a)), rig_->safety.IsFaulted(i));
  }
}

void TickInvariants::CheckBattery(size_t i, Duration now, double soc, double cycles,
                                  Current current, bool faulted) {
  if (!std::isfinite(soc) || soc < 0.0 || soc > 1.0) {
    sink_->Add(now, "soc-range", "battery " + std::to_string(i) + " soc " + std::to_string(soc));
  }
  if (cycles + 1e-12 < prev_cycles_[i]) {
    sink_->Add(now, "cycle-monotone",
               "battery " + std::to_string(i) + " cycles " + std::to_string(cycles) + " < " +
                   std::to_string(prev_cycles_[i]));
  }
  prev_cycles_[i] = cycles;
  if (prev_faulted_[i] && current.value() > 1e-9) {
    sink_->Add(now, "faulted-current",
               "battery " + std::to_string(i) + " carried " + std::to_string(current.value()) +
                   " A while faulted");
  }
  prev_faulted_[i] = faulted;
}

WarmRestartOutcome RunWithWarmRestarts(const WarmRestartRun& run, ViolationSink* sink) {
  WarmRestartOutcome out;
  checkpoint::MemorySlotDevice device;
  size_t crash_index = 0;
  out.rig = run.boot();
  auto store = std::make_unique<checkpoint::CheckpointStore>(&device, run.config_digest);
  bool cold_boot = true;
  SimLoopState resume_state;
  for (;;) {
    SimConfig sim_config = run.sim_config(*out.rig, cold_boot ? nullptr : &resume_state);
    sim_config.checkpoint_period = run.checkpoint_period;
    auto observe = std::move(sim_config.on_barrier);
    sim_config.on_barrier = [&, observe](CrashBarrier barrier, Duration now) {
      if (observe && !observe(barrier, now)) {
        return false;
      }
      if (crash_index < run.crashes.size()) {
        const CrashEvent& next = run.crashes[crash_index];
        if (next.barrier == barrier && now.value() >= next.time.value()) {
          ++crash_index;
          SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, now.value(), -1, "crash-injected",
                            std::string(CrashBarrierName(barrier)));
          return false;
        }
      }
      return true;
    };
    sim_config.on_checkpoint = [&](const SimLoopState& state) {
      bool die = false;
      if (crash_index < run.crashes.size()) {
        const CrashEvent& next = run.crashes[crash_index];
        if (next.barrier == CrashBarrier::kMidCheckpointWrite &&
            state.t.value() >= next.time.value()) {
          die = true;
          std::string what(CrashBarrierName(CrashBarrier::kMidCheckpointWrite));
          if (next.torn != TornWriteKind::kNone) {
            const TornWriteKind torn = next.torn;
            const uint64_t torn_seed = run.torn_seed ^ crash_index;
            store->SetWriteMutatorOnce([torn, torn_seed](std::vector<uint8_t>& bytes) {
              ApplyTornWrite(torn, torn_seed, bytes);
            });
            ++out.torn_writes;
            what += ":";
            what += TornWriteKindName(torn);
          }
          ++crash_index;
          SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, state.t.value(), -1, "crash-injected", what);
        }
      }
      Status saved = store->Save(out.rig->SaveSnapshot(state), state.t);
      if (!saved.ok()) {
        sink->Add(state.t, run.save_tag, saved.ToString());
      }
      return !die;
    };
    Simulator sim(&out.rig->runtime, sim_config);
    out.result = cold_boot ? sim.Run(*run.load, *run.supply)
                           : sim.Resume(resume_state, *run.load, *run.supply);
    if (!out.result.crashed) {
      return out;
    }
    ++out.crashes_fired;

    // Process death: rig and store die with the process; only the slot
    // device (the "disk") survives into the next boot.
    out.rig = run.boot();
    store = std::make_unique<checkpoint::CheckpointStore>(&device, run.config_digest);
    StatusOr<checkpoint::LoadResult> loaded = store->LoadLastGood();
    if (!loaded.ok()) {
      // No restorable snapshot (the only writes so far were torn): cold
      // start. Determinism makes the re-run bit-identical to the original
      // timeline, so the equivalence oracle still holds.
      ++out.cold_restarts;
      SDB_JOURNAL_EVENT(obs::EventKind::kCheckpointRestore, -1.0, -1, "cold-start",
                        loaded.status().ToString());
      cold_boot = true;
      continue;
    }
    out.corrupt_slots += loaded->corrupt_slots;
    if (loaded->fell_back) {
      ++out.slot_fallbacks;
    }
    RestoreReport resync;
    out.restore = out.rig->RestoreSnapshot(loaded->snapshot, &resync, &resume_state);
    if (!out.restore.ok()) {
      return out;
    }
    SDB_JOURNAL_EVENT(obs::EventKind::kCheckpointRestore, resume_state.t.value(), -1,
                      "warm-restart",
                      std::string(loaded->fell_back ? "fallback slot" : "newest slot"));
    ++out.warm_restarts;
    out.drift_fields += resync.drift_fields;
    out.resynced = out.resynced || resync.resynced;
    store->AdoptLoaded(*loaded);
    cold_boot = false;
  }
}

}  // namespace sdb
