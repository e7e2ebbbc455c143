#include "src/core/runtime.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/core/allocator.h"
#include "src/hw/command_link.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

namespace {

// Registry mirrors of ResilienceCounters: every increment of the per-runtime
// struct also lands on the process-wide "sdb.runtime.*" metrics, so health
// is visible through MetricsRegistry::Snapshot() without holding a runtime
// pointer. The struct stays the per-instance view.
struct ResilienceMetrics {
  obs::Counter* link_retries;
  obs::Counter* link_failures;
  obs::Counter* stale_updates;
  obs::Counter* degraded_entries;
  obs::Counter* degraded_exits;
  obs::Counter* masked_faults;
  obs::Counter* quarantines;
  obs::Counter* reintegrations;
  obs::Counter* resyncs;
  obs::Gauge* backoff_total_s;
};

ResilienceMetrics& GlobalResilienceMetrics() {
  static ResilienceMetrics* metrics = new ResilienceMetrics{
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.link_retries"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.link_failures"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.stale_updates"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.degraded_entries"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.degraded_exits"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.masked_faults"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.quarantines"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.reintegrations"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.resyncs"),
      obs::MetricsRegistry::Global().GetGauge("sdb.runtime.backoff_total_s"),
  };
  return *metrics;
}

// Warm-restart observability: how often restores resync'd (or deferred the
// handshake into a brownout window) and how many status fields the hardware
// disagreed with the checkpoint about.
struct RestoreMetrics {
  obs::Counter* restore_resyncs;
  obs::Counter* reconcile_deferred;
  obs::Counter* drift_fields;
};

RestoreMetrics& GlobalRestoreMetrics() {
  static RestoreMetrics* metrics = new RestoreMetrics{
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.checkpoint.restore_resyncs"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.checkpoint.reconcile_deferred"),
      obs::MetricsRegistry::Global().GetCounter("sdb.runtime.checkpoint.drift_fields"),
  };
  return *metrics;
}

// Field-wise drift between a checkpointed battery status and the hardware's
// current report (exact compares: both sides come from the same gauge state,
// so any difference is real divergence, not float noise).
uint64_t CountStatusDrift(const BatteryStatus& saved, const BatteryStatus& hw) {
  uint64_t drift = 0;
  drift += saved.soc != hw.soc ? 1 : 0;
  drift += saved.terminal_voltage.value() != hw.terminal_voltage.value() ? 1 : 0;
  drift += saved.cycle_count != hw.cycle_count ? 1 : 0;
  drift += saved.full_capacity.value() != hw.full_capacity.value() ? 1 : 0;
  drift += saved.last_current.value() != hw.last_current.value() ? 1 : 0;
  drift += saved.temperature.value() != hw.temperature.value() ? 1 : 0;
  return drift;
}

#if SDB_JOURNAL
// Renders a ratio vector in its JSONL wire form ("[0.5,0.5]"). Policy-switch
// detection compares these strings — JsonNumber round-trips doubles exactly,
// so this is change detection on the journaled representation itself.
std::string FormatRatios(const std::vector<double>& ratios) {
  std::string out = "[";
  for (size_t i = 0; i < ratios.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += obs::JsonNumber(ratios[i]);
  }
  out += "]";
  return out;
}
#endif  // SDB_JOURNAL

// Journals a policy-switch decision when the programmed ratio vector changed,
// carrying both the previous and new ratios plus the blend weight that
// produced them.
void JournalPolicyDecision(double t_s, const char* side, const std::vector<double>& prev,
                           const std::vector<double>& next, double weight) {
#if SDB_JOURNAL
  if (!obs::JournalActive()) {
    return;
  }
  std::string prev_str = FormatRatios(prev);
  std::string next_str = FormatRatios(next);
  if (prev_str == next_str) {
    return;
  }
  obs::EmitEvent(obs::EventKind::kPolicyDecision, t_s, -1, side,
                 prev_str + " -> " + next_str, weight);
#else
  (void)t_s;
  (void)side;
  (void)prev;
  (void)next;
  (void)weight;
#endif
}

}  // namespace

SdbRuntime::SdbRuntime(SdbMicrocontroller* micro, RuntimeConfig config)
    : micro_(micro),
      config_(config),
      rbl_discharge_(config.rbl),
      ccb_discharge_(config.ccb),
      blended_discharge_(&rbl_discharge_, &ccb_discharge_, config.directives.discharging),
      reserve_(&blended_discharge_, config.reserve),
      rbl_charge_(config.rbl),
      ccb_charge_(config.ccb),
      blended_charge_(&rbl_charge_, &ccb_charge_, config.directives.charging) {
  SDB_CHECK(micro_ != nullptr);
  last_discharge_ratios_.assign(micro_->battery_count(), 0.0);
  last_charge_ratios_.assign(micro_->battery_count(), 0.0);
  prev_excluded_.assign(micro_->battery_count(), false);
  ramp_.assign(micro_->battery_count(), 1.0);
  view_hints_.resize(micro_->battery_count());
}

void SdbRuntime::SetChargingDirective(double value) {
  double clamped = Clamp(value, 0.0, 1.0);
#if SDB_JOURNAL
  // Change detection on the journaled representation (JsonNumber round-trips
  // doubles exactly), so a repeated set of the same weight stays silent.
  if (obs::JournalActive() &&
      obs::JsonNumber(clamped) != obs::JsonNumber(blended_charge_.weight())) {
    obs::EmitEvent(obs::EventKind::kDirectiveChange, elapsed_.value(), -1, "charging",
                   std::string(), clamped, blended_charge_.weight());
  }
#endif
  blended_charge_.set_weight(clamped);
}

void SdbRuntime::SetDischargingDirective(double value) {
  double clamped = Clamp(value, 0.0, 1.0);
#if SDB_JOURNAL
  if (obs::JournalActive() &&
      obs::JsonNumber(clamped) != obs::JsonNumber(blended_discharge_.weight())) {
    obs::EmitEvent(obs::EventKind::kDirectiveChange, elapsed_.value(), -1, "discharging",
                   std::string(), clamped, blended_discharge_.weight());
  }
#endif
  blended_discharge_.set_weight(clamped);
}

void SdbRuntime::SetDirectives(DirectiveParameters params) {
  SetChargingDirective(params.charging);
  SetDischargingDirective(params.discharging);
}

DirectiveParameters SdbRuntime::directives() const {
  return DirectiveParameters{.charging = blended_charge_.weight(),
                             .discharging = blended_discharge_.weight()};
}

void SdbRuntime::SetWorkloadHint(std::optional<WorkloadHint> hint) {
  reserve_.SetHint(std::move(hint));
}

void SdbRuntime::AdvanceTime(Duration dt) {
  elapsed_ += dt;
  // Grow the reintegration ramp of every battery that is back in the
  // allocation but not yet at full share.
  if (config_.reintegration_horizon.value() > 0.0) {
    const double step = dt.value() / config_.reintegration_horizon.value();
    for (size_t i = 0; i < ramp_.size(); ++i) {
      if (ramp_[i] < 1.0 && !(i < excluded_.size() && excluded_[i])) {
        ramp_[i] = Clamp(ramp_[i] + step, 0.0, 1.0);
      }
    }
  }
  const auto& hint = reserve_.hint();
  if (!hint.has_value()) {
    return;
  }
  WorkloadHint updated = *hint;
  updated.time_until -= dt;
  if (updated.time_until.value() <= -updated.duration.value()) {
    // The anticipated window has fully passed; stop reserving.
    reserve_.SetHint(std::nullopt);
    return;
  }
  reserve_.SetHint(updated);
}

BatteryViews SdbRuntime::BuildViews() const {
  BatteryViews views;
  BuildViewsFrom(micro_->QueryBatteryStatus(), &views);
  return views;
}

Energy SdbRuntime::LastRbl() const {
  if (rbl_stale_) {
    last_rbl_ = EstimateRbl(views_, config_.anticipated_load);
    rbl_stale_ = false;
  }
  return last_rbl_;
}

void SdbRuntime::BuildViewsFrom(const std::vector<BatteryStatus>& statuses,
                                BatteryViews* views) const {
  // Every field of every view is written below, so an element reused from
  // the last call carries nothing over, and reassigning the same shared
  // curve leaves its reference count alone.
  views->resize(statuses.size());
  for (size_t i = 0; i < statuses.size(); ++i) {
    // Manufacturer data (curves, limits) + gauge estimates (SoC, capacity).
    const Cell& cell = micro_->pack().cell(i);
    const BatteryParams& params = cell.params();
    const BatteryStatus& status = statuses[i];
    BatteryView& v = (*views)[i];
    v.index = i;
    v.soc = status.soc;
    CurveHints& hints = view_hints_[i];
    v.ocv = Volts(params.ocv_vs_soc.EvaluateHinted(v.soc, &hints.ocv));
    v.ocv_curve = cell.shared_ocv_curve();
    // One hint for both DCIR lookups: the slope reuses the value's segment.
    v.dcir = Ohms(params.dcir_vs_soc.EvaluateHinted(v.soc, &hints.dcir));
    v.dcir_slope = Ohms(params.dcir_vs_soc.DerivativeHinted(v.soc, &hints.dcir));
    v.capacity = status.full_capacity;
    v.rated_cycles = params.rated_cycle_count;
    v.wear_ratio = params.rated_cycle_count > 0.0
                       ? status.cycle_count / params.rated_cycle_count
                       : 0.0;
    v.max_discharge = params.max_discharge_current;
    // Charge acceptance tapers above 80% SoC (the profile's trickle rule).
    v.max_charge = params.max_charge_current;
    if (v.soc >= 0.8) {
      v.max_charge = Min(v.max_charge, params.CRate(0.3));
    }
    // Thermal derating: a hot battery is throttled and finally excluded.
    v.temperature = status.temperature;
    double t_lo = config_.derate_start.value();
    double t_hi = config_.derate_cutoff.value();
    if (v.temperature.value() > t_lo) {
      double scale = Clamp((t_hi - v.temperature.value()) / (t_hi - t_lo), 0.0, 1.0);
      v.max_discharge *= scale;
      v.max_charge *= scale;
    }
    v.is_empty = v.soc <= 1e-3;
    v.is_full = v.soc >= 1.0 - 1e-3;
  }
}

Status SdbRuntime::QueryStatusWithRetry() {
  if (link_ == nullptr) {
    micro_->QueryBatteryStatus(&last_statuses_);
    return Status::Ok();
  }
  SDB_TRACE_SPAN("core", "runtime.query_status");
  StatusOr<std::vector<BatteryStatus>> result = link_->QueryBatteryStatus();
  Duration backoff = config_.retry_backoff_base;
  for (int attempt = 0; !result.ok() && attempt < config_.link_retries; ++attempt) {
    SDB_TRACE_SPAN("core", "runtime.link_retry");
    ++resilience_.link_retries;
    resilience_.backoff_total += backoff;
    GlobalResilienceMetrics().link_retries->Increment();
    GlobalResilienceMetrics().backoff_total_s->Add(backoff.value());
    backoff = Min(backoff + backoff, config_.retry_backoff_cap);
    result = link_->QueryBatteryStatus();
  }
  if (!result.ok()) {
    ++resilience_.link_failures;
    GlobalResilienceMetrics().link_failures->Increment();
    return result.status();
  }
  last_statuses_ = std::move(*result);
  return Status::Ok();
}

Status SdbRuntime::Update(Power expected_load, Power expected_supply) {
  SDB_TRACE_SPAN("core", "runtime.update");
  // Direct-wired controllers surface a reboot as awaiting_resync; complete
  // the handshake before issuing commands. (Link-attached runtimes resync
  // transparently inside the client; the count is absorbed below.)
  if (link_ == nullptr && micro_->awaiting_resync() && !micro_->in_reset()) {
    SDB_TRACE_SPAN("core", "runtime.resync");
    micro_->Resync();
    ++resilience_.resyncs;
    GlobalResilienceMetrics().resyncs->Increment();
    SDB_JOURNAL_EVENT(obs::EventKind::kResync, elapsed_.value(), -1, "direct-resync");
  }
  // Query the battery status, retrying over a flaky link; while the link
  // stays down, plan from the last good status rather than crashing the
  // scheduling step. (The error path used to be silently ignored here.)
  Status queried = QueryStatusWithRetry();
  if (queried.ok()) {
    consecutive_stale_ = 0;
  } else if (last_statuses_.empty()) {
    // No status has ever been seen: there is nothing to plan from.
    return queried;
  } else {
    ++consecutive_stale_;
    ++resilience_.stale_updates;
    GlobalResilienceMetrics().stale_updates->Increment();
  }

  // Checked before views_ is rebuilt: a stale RBL memo still needs the
  // views of the Update that made it.
  if (last_statuses_.empty()) {
    return FailedPreconditionError("no batteries");
  }
  BuildViewsFrom(last_statuses_, &views_);
  rbl_stale_ = true;
  const BatteryViews& views = views_;

  {
    SDB_TRACE_SPAN("core", "runtime.policy_eval");
    last_ccb_ = ComputeCcb(views);
  }

  // Degraded mode: exclude batteries the supervisor latched, ones whose
  // status is implausible, and ones past the thermal cutoff.
  excluded_.assign(views.size(), false);
  size_t masked = 0;
  const SafetySupervisor* safety = micro_->safety();
  for (size_t i = 0; i < views.size(); ++i) {
    const BatteryView& v = views[i];
    bool implausible = !std::isfinite(v.soc) || v.soc < 0.0 || v.soc > 1.0 ||
                       !(v.ocv.value() > 0.0);
    bool tripped = !(v.temperature < config_.derate_cutoff);
    if ((safety != nullptr && safety->IsFaulted(i)) || implausible || tripped) {
      excluded_[i] = true;
      ++masked;
    }
  }
  resilience_.masked_faults += masked;
  GlobalResilienceMetrics().masked_faults->Increment(masked);

  // Quarantine / reintegration edges against the previous Update's mask.
  const bool ramping = config_.reintegration_horizon.value() > 0.0;
  for (size_t i = 0; i < excluded_.size(); ++i) {
    const bool was = i < prev_excluded_.size() && prev_excluded_[i];
    if (excluded_[i] && !was) {
      SDB_TRACE_SPAN("core", "runtime.quarantine");
      ++resilience_.quarantines;
      GlobalResilienceMetrics().quarantines->Increment();
      SDB_JOURNAL_EVENT(obs::EventKind::kQuarantine, elapsed_.value(),
                        static_cast<int>(i),
                        (safety != nullptr && safety->IsFaulted(i)) ? "safety"
                                                                    : "telemetry");
      if (ramping) {
        ramp_[i] = 0.0;  // A future return starts from zero share.
      }
    } else if (!excluded_[i] && was) {
      SDB_TRACE_SPAN("core", "runtime.reintegrate");
      ++resilience_.reintegrations;
      GlobalResilienceMetrics().reintegrations->Increment();
      SDB_JOURNAL_EVENT(obs::EventKind::kReintegrate, elapsed_.value(),
                        static_cast<int>(i), ramping ? "ramped" : "immediate");
      if (!ramping) {
        ramp_[i] = 1.0;  // No ramp: rejoin at full share immediately.
      }
    }
  }
  prev_excluded_ = excluded_;

  bool now_degraded =
      masked > 0 || consecutive_stale_ > config_.stale_updates_tolerated;
  if (now_degraded && !degraded_) {
    ++resilience_.degraded_entries;
    GlobalResilienceMetrics().degraded_entries->Increment();
    SDB_JOURNAL_EVENT(obs::EventKind::kDegradedEnter, elapsed_.value(), -1,
                      std::string(), std::string(), static_cast<double>(masked));
  } else if (!now_degraded && degraded_) {
    ++resilience_.degraded_exits;
    GlobalResilienceMetrics().degraded_exits->Increment();
    SDB_JOURNAL_EVENT(obs::EventKind::kDegradedExit, elapsed_.value(), -1,
                      std::string(), std::string(), static_cast<double>(masked));
  }
  degraded_ = now_degraded;

  SDB_TRACE_SPAN("core", "runtime.allocate");
  std::vector<double>& d = discharge_shares_;
  d = reserve_.Allocate(views, expected_load);
  if (masked > 0) {
    ApplyDegradedExclusion(excluded_, &d, &eligible_scratch_);
  }
  if (ramping) {
    ApplyReintegrationRamp(ramp_, &d, &eligible_scratch_);
  }
  double d_sum = 0.0;
  for (double x : d) {
    d_sum += x;
  }
  if (d_sum > 0.0) {
    for (auto& x : d) {
      x /= d_sum;
    }
    if (link_ != nullptr) {
      if (link_->SetDischargeRatios(d).ok()) {
        JournalPolicyDecision(elapsed_.value(), "discharge", last_discharge_ratios_, d,
                              blended_discharge_.weight());
        last_discharge_ratios_ = d;
      }
      // A failed set keeps the previous ratios programmed; the next healthy
      // Update reprograms them.
    } else {
      SDB_RETURN_IF_ERROR(micro_->SetDischargeRatios(d));
      JournalPolicyDecision(elapsed_.value(), "discharge", last_discharge_ratios_, d,
                            blended_discharge_.weight());
      last_discharge_ratios_ = d;
    }
  }

  std::vector<double>& c = charge_shares_;
  c = blended_charge_.Allocate(views, expected_supply);
  if (masked > 0) {
    ApplyDegradedExclusion(excluded_, &c, &eligible_scratch_);
  }
  if (ramping) {
    ApplyReintegrationRamp(ramp_, &c, &eligible_scratch_);
  }
  double c_sum = 0.0;
  for (double x : c) {
    c_sum += x;
  }
  if (c_sum > 0.0) {
    for (auto& x : c) {
      x /= c_sum;
    }
    if (link_ != nullptr) {
      if (link_->SetChargeRatios(c).ok()) {
        JournalPolicyDecision(elapsed_.value(), "charge", last_charge_ratios_, c,
                              blended_charge_.weight());
        last_charge_ratios_ = c;
      }
    } else {
      SDB_RETURN_IF_ERROR(micro_->SetChargeRatios(c));
      JournalPolicyDecision(elapsed_.value(), "charge", last_charge_ratios_, c,
                            blended_charge_.weight());
      last_charge_ratios_ = c;
    }
  }

  // Absorb resync handshakes the link client ran transparently this Update.
  if (link_ != nullptr && link_->resyncs() > last_link_resyncs_) {
    uint64_t fresh = link_->resyncs() - last_link_resyncs_;
    last_link_resyncs_ = link_->resyncs();
    resilience_.resyncs += fresh;
    GlobalResilienceMetrics().resyncs->Increment(fresh);
  }
  return Status::Ok();
}

Status SdbRuntime::RequestTransfer(size_t from, size_t to, Power power, Duration duration) {
  return micro_->ChargeOneFromAnother(from, to, power, duration);
}

RuntimeState SdbRuntime::SaveState() const {
  RuntimeState state;
  state.directives = directives();
  if (reserve_.hint().has_value()) {
    state.has_hint = true;
    state.hint = *reserve_.hint();
  }
  state.last_ccb = last_ccb_;
  state.last_rbl = LastRbl();
  state.elapsed = elapsed_;
  state.last_discharge_ratios = last_discharge_ratios_;
  state.last_charge_ratios = last_charge_ratios_;
  state.last_statuses = last_statuses_;
  state.consecutive_stale = consecutive_stale_;
  state.degraded = degraded_;
  state.excluded = excluded_;
  state.prev_excluded = prev_excluded_;
  state.ramp = ramp_;
  state.last_link_resyncs = last_link_resyncs_;
  state.resilience = resilience_;
  return state;
}

Status SdbRuntime::RestoreState(const RuntimeState& state) {
  const size_t n = micro_->battery_count();
  if (state.last_discharge_ratios.size() != n || state.last_charge_ratios.size() != n ||
      state.prev_excluded.size() != n || state.ramp.size() != n) {
    return InvalidArgumentError("runtime: snapshot arity does not match battery count " +
                                std::to_string(n));
  }
  // last_statuses_/excluded_ may legitimately be empty (no Update yet), but a
  // non-empty vector must match the pack.
  if (!state.last_statuses.empty() && state.last_statuses.size() != n) {
    return InvalidArgumentError("runtime: snapshot status arity does not match battery count");
  }
  if (!state.excluded.empty() && state.excluded.size() != n) {
    return InvalidArgumentError("runtime: snapshot exclusion arity does not match battery count");
  }
  // Route directives through the setters so the blend weights land in the
  // policies; the journal change-detection makes repeated sets silent.
  SetDirectives(state.directives);
  reserve_.SetHint(state.has_hint ? std::optional<WorkloadHint>(state.hint) : std::nullopt);
  last_ccb_ = state.last_ccb;
  last_rbl_ = state.last_rbl;
  rbl_stale_ = false;
  elapsed_ = state.elapsed;
  last_discharge_ratios_ = state.last_discharge_ratios;
  last_charge_ratios_ = state.last_charge_ratios;
  last_statuses_ = state.last_statuses;
  consecutive_stale_ = static_cast<int>(state.consecutive_stale);
  degraded_ = state.degraded;
  excluded_ = state.excluded;
  prev_excluded_ = state.prev_excluded;
  ramp_ = state.ramp;
  last_link_resyncs_ = state.last_link_resyncs;
  resilience_ = state.resilience;
  return Status::Ok();
}

StatusOr<RestoreReport> SdbRuntime::RestoreAndResync(const RuntimeState& state) {
  SDB_RETURN_IF_ERROR(RestoreState(state));
  RestoreReport report;
  // Boot-count handshake, directly against the controller: restore happens
  // before the wire is live, and a link roundtrip would consume fault-plan
  // RNG that the uncrashed timeline never drew.
  if (micro_->awaiting_resync()) {
    if (micro_->in_reset()) {
      // Brownout window: the handshake defers to the first Update after the
      // controller comes back (the direct-resync path there).
      report.resync_deferred = true;
      GlobalRestoreMetrics().reconcile_deferred->Increment();
    } else {
      uint32_t boot = micro_->Resync();
      if (link_ != nullptr) {
        link_->AdoptBootCount(boot);
      }
      ++resilience_.resyncs;
      GlobalResilienceMetrics().resyncs->Increment();
      GlobalRestoreMetrics().restore_resyncs->Increment();
      report.resynced = true;
      SDB_JOURNAL_EVENT(obs::EventKind::kResync, elapsed_.value(), -1, "restore-resync",
                        std::string(), static_cast<double>(boot));
    }
  }
  // Drift reconciliation: the checkpointed statuses were written by the
  // pre-crash gauges; ask the hardware what it reports now (a direct const
  // query — no RNG, no wire) and adopt its values, counting disagreements.
  if (!last_statuses_.empty() && !micro_->in_reset()) {
    std::vector<BatteryStatus> hw = micro_->QueryBatteryStatus();
    if (hw.size() == last_statuses_.size()) {
      uint64_t drift = 0;
      for (size_t i = 0; i < hw.size(); ++i) {
        drift += CountStatusDrift(last_statuses_[i], hw[i]);
      }
      if (drift > 0) {
        report.drift_fields = drift;
        GlobalRestoreMetrics().drift_fields->Increment(drift);
        SDB_JOURNAL_EVENT(obs::EventKind::kCheckpointRestore, elapsed_.value(), -1,
                          "drift-reconciled", std::string(), static_cast<double>(drift));
        last_statuses_ = std::move(hw);
      }
    }
  }
  return report;
}

}  // namespace sdb
