#include "src/core/mpc_policy.h"

#include "src/util/check.h"

namespace sdb {

MpcDischargePolicy::MpcDischargePolicy(const BatteryParams* battery_a,
                                       const BatteryParams* battery_b, ForecastFn forecast,
                                       MpcConfig config)
    : battery_a_(battery_a), battery_b_(battery_b), forecast_(std::move(forecast)),
      config_(config) {
  SDB_CHECK(battery_a_ != nullptr && battery_b_ != nullptr);
  SDB_CHECK(forecast_ != nullptr);
  SDB_CHECK(config_.replan_period.value() > 0.0);
  SDB_CHECK(config_.horizon.value() >= config_.plan.step.value());
}

void MpcDischargePolicy::Advance(Duration dt) { elapsed_ += dt; }

const std::vector<double>& MpcDischargePolicy::Allocate(const BatteryViews& views, Power load) {
  SDB_CHECK(views.size() == 2);
  if (elapsed_.value() >= next_replan_.value() || !has_plan_) {
    next_replan_ = elapsed_ + config_.replan_period;
    ++replans_;
    PowerTrace outlook = forecast_(elapsed_, config_.horizon);
    if (!outlook.empty()) {
      PlannerBattery a{battery_a_, views[0].soc};
      PlannerBattery b{battery_b_, views[1].soc};
      PlanResult plan = PlanOptimalDischarge(a, b, outlook, config_.plan);
      if (!plan.share_schedule.empty()) {
        planned_share_a_ = plan.share_schedule.front();
        has_plan_ = true;
      } else {
        has_plan_ = false;
      }
    } else {
      has_plan_ = false;
    }
  }
  if (!has_plan_) {
    return fallback_.Allocate(views, load);
  }
  shares_.assign({planned_share_a_, 1.0 - planned_share_a_});
  return shares_;
}

}  // namespace sdb
