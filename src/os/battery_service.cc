#include "src/os/battery_service.h"

#include <algorithm>
#include <cmath>

#include "src/core/metrics.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

BatteryService::BatteryService(SdbRuntime* runtime, BatteryServiceConfig config)
    : runtime_(runtime), config_(config) {
  SDB_CHECK(runtime_ != nullptr);
  SDB_CHECK(config_.load_ewma_alpha > 0.0 && config_.load_ewma_alpha <= 1.0);
}

void BatteryService::Observe(Power net_load, Duration dt) {
  SDB_CHECK(dt.value() > 0.0);
  charging_ = net_load.value() < 0.0;
  Power magnitude = Abs(net_load);
  if (!has_load_sample_) {
    load_ewma_ = magnitude;
    has_load_sample_ = true;
  } else {
    load_ewma_ += (magnitude - load_ewma_) * config_.load_ewma_alpha;
  }
}

double BatteryService::StoredFraction() const {
  BatteryViews views = runtime_->BuildViews();
  Charge stored;
  Charge total;
  for (const BatteryView& v : views) {
    stored += v.capacity * v.soc;
    total += v.capacity;
  }
  return total.value() > 0.0 ? Ratio(stored, total) : 0.0;
}

BatteryReadout BatteryService::Read() const {
  BatteryReadout readout;
  double fraction = StoredFraction();
  readout.raw_fraction = fraction;

  // Hysteresis: move the displayed percentage only when the raw value has
  // clearly left the shown bucket.
  int raw_percent = static_cast<int>(std::lround(fraction * 100.0));
  if (shown_percent_ < 0) {
    shown_percent_ = raw_percent;
  } else {
    double shown_fraction = shown_percent_ / 100.0;
    if (std::fabs(fraction - shown_fraction) > 0.01 + config_.display_hysteresis) {
      shown_percent_ = raw_percent;
    }
  }
  readout.percent = shown_percent_;

  if (has_load_sample_ && load_ewma_.value() > 1e-6) {
    BatteryViews views = runtime_->BuildViews();
    if (charging_) {
      Energy missing;
      for (const BatteryView& v : views) {
        missing += v.capacity * v.ocv * (1.0 - v.soc);
      }
      readout.time_to_full = missing / load_ewma_;
    } else {
      Energy remaining;
      for (const BatteryView& v : views) {
        remaining += RemainingEnergy(v);
      }
      readout.time_to_empty = remaining / load_ewma_;
    }
  }
  return readout;
}

StatusOr<ChargePlan> BatteryService::ScheduleAdaptiveCharge(Duration until_unplug,
                                                            double target_soc) {
  BatteryViews views = runtime_->BuildViews();
  std::vector<ChargeGoal> goals;
  goals.reserve(views.size());
  for (const BatteryView& v : views) {
    ChargeGoal goal;
    goal.params = &runtime_->microcontroller()->pack().cell(v.index).params();
    goal.current_soc = v.soc;
    goal.target_soc = Clamp(target_soc, v.soc, 1.0);
    goals.push_back(goal);
  }
  StatusOr<ChargePlan> plan = PlanCharge(goals, until_unplug, config_.planner);
  if (!plan.ok()) {
    return plan;
  }

  // Translate the plan's aggressiveness into the charging directive: the
  // fraction of max rate the bottleneck battery must run at.
  double aggressiveness = 0.0;
  for (size_t i = 0; i < plan->entries.size(); ++i) {
    const BatteryParams& p = *goals[i].params;
    double max_rate = p.max_charge_current.value() /
                      Amps(ToAmpHours(p.nominal_capacity)).value();
    if (max_rate > 0.0) {
      aggressiveness = std::max(aggressiveness, plan->entries[i].c_rate / max_rate);
    }
  }
  runtime_->SetChargingDirective(aggressiveness);
  return plan;
}

}  // namespace sdb
