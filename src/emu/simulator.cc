#include "src/emu/simulator.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace sdb {

std::string_view CrashBarrierName(CrashBarrier barrier) {
  switch (barrier) {
    case CrashBarrier::kPreAllocate:
      return "pre-allocate";
    case CrashBarrier::kPostAllocate:
      return "post-allocate";
    case CrashBarrier::kMidCheckpointWrite:
      return "mid-checkpoint-write";
  }
  return "unknown";
}

Simulator::Simulator(SdbRuntime* runtime, SimConfig config)
    : runtime_(runtime), config_(config) {
  SDB_CHECK(runtime_ != nullptr);
  SDB_CHECK(config_.tick.value() > 0.0);
  SDB_CHECK(config_.runtime_period.value() >= config_.tick.value());
  SDB_CHECK(config_.checkpoint_period.value() >= 0.0);
}

void Simulator::SampleTimeline(obs::Timeline& timeline, Duration now,
                               const MicroTick& tick) const {
  const SdbMicrocontroller* micro = runtime_->microcontroller();
  const size_t n = micro->battery_count();
  std::vector<std::pair<std::string, double>> row;
  row.reserve(3 * n + 12);
  for (size_t i = 0; i < n; ++i) {
    const Cell& cell = micro->pack().cell(i);
    std::string prefix = "b";
    prefix += std::to_string(i);
    row.emplace_back(prefix + ".soc", cell.soc());
    row.emplace_back(prefix + ".temp_k", cell.thermal().temperature().value());
    double share = i < tick.discharge.realised_shares.size()
                       ? tick.discharge.realised_shares[i]
                       : 0.0;
    row.emplace_back(prefix + ".share", share);
  }
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("sdb.runtime.", 0) == 0) {
      row.emplace_back(name, static_cast<double>(value));
    }
  }
  timeline.Sample(now.value(), row);
}

SimResult Simulator::Run(const PowerTrace& load, const PowerTrace& supply) {
  SDB_TRACE_SPAN("emu", "sim.run");
  SdbMicrocontroller* micro = runtime_->microcontroller();
  if (!config_.faults.empty()) {
    micro->InstallFaults(config_.faults);
  }
  SimLoopState start;
  start.partial.final_soc.assign(micro->battery_count(), 0.0);
  start.partial.depletion_time.assign(micro->battery_count(), std::nullopt);
  return RunLoop(std::move(start), load, supply);
}

SimResult Simulator::Resume(const SimLoopState& from, const PowerTrace& load,
                            const PowerTrace& supply) {
  SDB_TRACE_SPAN("emu", "sim.resume");
  return RunLoop(from, load, supply);
}

SimResult Simulator::RunLoop(SimLoopState state, const PowerTrace& load,
                             const PowerTrace& supply) {
  SdbMicrocontroller* micro = runtime_->microcontroller();
  const size_t n = micro->battery_count();

  SimResult result = std::move(state.partial);

  double horizon_s =
      std::min(std::max(load.TotalDuration(), supply.TotalDuration()).value(),
               config_.max_duration.value());
  double tick_s = config_.tick.value();
  double next_replan = state.next_replan.value();
  bool transfer_was_active = state.transfer_was_active;
  const double checkpoint_s = config_.checkpoint_period.value();
  double next_checkpoint = state.next_checkpoint.value();
  const bool checkpointing = checkpoint_s > 0.0 && config_.on_checkpoint != nullptr;

  // Trace segment hints: derived from t alone, so they are not loop state.
  size_t load_hint = 0;
  size_t supply_hint = 0;
  double t = state.t.value();
  while (t < horizon_s) {
    // Publish the simulated clock so spans opened below carry it; tracing
    // only ever reads this — it never feeds back into the simulation.
    SDB_TRACE_SET_SIM_TIME(Seconds(t));

    // Checkpoint at the top of the iteration, before this tick's work, so
    // the saved loop state re-executes the tick it interrupted. The deadline
    // advances BEFORE the callback: the state it snapshots must aim the
    // resumed run at the NEXT checkpoint, not back at this one.
    if (checkpointing && t >= next_checkpoint) {
      next_checkpoint += checkpoint_s;
      SimLoopState snap;
      snap.t = Seconds(t);
      snap.next_replan = Seconds(next_replan);
      snap.next_checkpoint = Seconds(next_checkpoint);
      snap.transfer_was_active = transfer_was_active;
      snap.partial = result;
      if (!config_.on_checkpoint(snap)) {
        result.crashed = true;
        break;
      }
    }

    Power p_load = load.Sample(Seconds(t), &load_hint);
    Power p_supply = supply.Sample(Seconds(t), &supply_hint);

    if (t >= next_replan) {
      if (config_.on_barrier != nullptr &&
          !config_.on_barrier(CrashBarrier::kPreAllocate, Seconds(t))) {
        result.crashed = true;
        break;
      }
      // A failed update is survivable — the runtime keeps the previous
      // ratios — but never silent: the result carries the count.
      Status update_status = runtime_->Update(p_load, p_supply);
      if (!update_status.ok()) {
        ++result.update_failures;
      }
      next_replan = t + config_.runtime_period.value();
      if (config_.on_barrier != nullptr &&
          !config_.on_barrier(CrashBarrier::kPostAllocate, Seconds(t))) {
        result.crashed = true;
        break;
      }
    }

    const MicroTick& tick = micro->Step(p_load, p_supply, Seconds(tick_s));
    runtime_->AdvanceTime(Seconds(tick_s));
    t += tick_s;
    if (config_.on_tick != nullptr) {
      config_.on_tick(tick, Seconds(t));
    }
    if (config_.timeline != nullptr && config_.timeline->Due(t)) {
      SampleTimeline(*config_.timeline, Seconds(t), tick);
    }

    // Energy ledger.
    double delivered_j = tick.discharge.delivered.value() * tick_s;
    double battery_loss_j =
        tick.discharge.battery_loss.value() + tick.charge.battery_loss.value() +
        tick.transfer.battery_loss.value();
    double circuit_loss_j =
        tick.discharge.circuit_loss.value() + tick.charge.circuit_loss.value() +
        tick.transfer.circuit_loss.value();
    result.delivered += Joules(delivered_j);
    result.battery_loss += Joules(battery_loss_j);
    result.circuit_loss += Joules(circuit_loss_j);
    result.charged += Joules(tick.charge.absorbed.value() * tick_s);

    size_t hour = static_cast<size_t>(ToHours(Seconds(t)));
    if (result.hourly.size() <= hour) {
      result.hourly.resize(hour + 1,
                           HourlyStats{Joules(0.0), Joules(0.0), Joules(0.0)});
    }
    HourlyStats& hourly = result.hourly[hour];
    hourly.load_energy += Joules(delivered_j);
    hourly.battery_loss += Joules(battery_loss_j);
    hourly.circuit_loss += Joules(circuit_loss_j);
    // Health snapshot: latch `degraded` if the runtime spent any tick of the
    // hour degraded; counters overwrite so the row holds hour-end values.
    const ResilienceCounters& resilience = runtime_->resilience();
    hourly.degraded = hourly.degraded || runtime_->degraded();
    hourly.link_retries = resilience.link_retries;
    hourly.link_failures = resilience.link_failures;
    hourly.stale_updates = resilience.stale_updates;

    // Events.
    for (size_t i = 0; i < n; ++i) {
      const Cell& cell = micro->pack().cell(i);
      if (!result.depletion_time[i].has_value() && cell.IsEmpty(1e-3)) {
        result.depletion_time[i] = Seconds(t);
        result.events.push_back(
            SimEvent{SimEventKind::kBatteryDepleted, Seconds(t), static_cast<int>(i)});
        SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, t, static_cast<int>(i),
                          "battery-depleted");
      }
    }
    if (transfer_was_active && !micro->transfer_active()) {
      result.events.push_back(SimEvent{SimEventKind::kTransferEnded, Seconds(t), -1});
      SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, t, -1, "transfer-ended");
    }
    transfer_was_active = micro->transfer_active();

    if (tick.discharge.shortfall && p_load.value() > 0.0) {
      if (!result.first_shortfall.has_value()) {
        result.first_shortfall = Seconds(t);
        result.events.push_back(SimEvent{SimEventKind::kLoadShortfall, Seconds(t), -1});
        SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, t, -1, "load-shortfall",
                          std::string(), tick.discharge.delivered.value(),
                          p_load.value());
      }
      if (config_.stop_on_shortfall) {
        break;
      }
    }
  }

  SDB_TRACE_CLEAR_SIM_TIME();
  result.elapsed = Seconds(t);
  for (size_t i = 0; i < n; ++i) {
    result.final_soc[i] = micro->pack().cell(i).soc();
  }
  return result;
}

SimResult Simulator::RunChargeOnly(Power supply, Duration timeout) {
  SDB_TRACE_SPAN("emu", "sim.run_charge_only");
  SdbMicrocontroller* micro = runtime_->microcontroller();
  const size_t n = micro->battery_count();
  SimResult result;
  result.delivered = Joules(0.0);
  result.battery_loss = Joules(0.0);
  result.circuit_loss = Joules(0.0);
  result.charged = Joules(0.0);
  result.final_soc.assign(n, 0.0);
  result.depletion_time.assign(n, std::nullopt);

  double tick_s = config_.tick.value();
  double next_replan = 0.0;
  double t = 0.0;
  while (t < timeout.value()) {
    SDB_TRACE_SET_SIM_TIME(Seconds(t));
    if (micro->pack().AllFull(1.0 - 1e-3)) {
      break;
    }
    if (t >= next_replan) {
      Status update_status = runtime_->Update(Watts(0.0), supply);
      if (!update_status.ok()) {
        ++result.update_failures;
      }
      next_replan = t + config_.runtime_period.value();
    }
    const MicroTick& tick = micro->Step(Watts(0.0), supply, Seconds(tick_s));
    t += tick_s;
    result.charged += Joules(tick.charge.absorbed.value() * tick_s);
    result.battery_loss += tick.charge.battery_loss;
    result.circuit_loss += tick.charge.circuit_loss;
    // A tick where nothing charged and nothing is full means the profiles
    // have terminated (CV tail done): stop early.
    if (!tick.charge.any_charging) {
      break;
    }
  }
  SDB_TRACE_CLEAR_SIM_TIME();
  result.elapsed = Seconds(t);
  for (size_t i = 0; i < n; ++i) {
    result.final_soc[i] = micro->pack().cell(i).soc();
  }
  return result;
}

}  // namespace sdb
