// Model-predictive discharge scheduling: the online middle ground between
// the myopic RBL heuristic and the offline DP plan. At each re-plan the
// policy pulls a load *forecast* for the next few hours (from the schedule
// predictor, a workload hint, or an oracle in evaluation), runs the same
// dynamic program the offline optimizer uses over that receding horizon,
// and executes only the first planned step — the §3.3 "knowledge of the
// future workload" idea turned into a deployable policy.
#ifndef SRC_CORE_MPC_POLICY_H_
#define SRC_CORE_MPC_POLICY_H_

#include <functional>

#include "src/core/optimizer.h"
#include "src/core/policy.h"
#include "src/core/rbl_policy.h"

namespace sdb {

struct MpcConfig {
  Duration horizon = Hours(6.0);        // Forecast window per re-plan.
  Duration replan_period = Minutes(5.0);  // How often the DP re-runs.
  PlanConfig plan;                      // DP resolution (grid/action/step).

  MpcConfig() {
    plan.soc_grid = 31;
    plan.action_grid = 11;
    plan.step = Minutes(5.0);
  }
};

class MpcDischargePolicy final : public DischargePolicy {
 public:
  // Returns the forecast load trace covering [now, now + horizon), with
  // t = 0 meaning "now".
  using ForecastFn = std::function<PowerTrace(Duration now, Duration horizon)>;

  // Two-battery policy over the given manufacturer data; `forecast` supplies
  // the load outlook. Falls back to RBL-Discharge when the DP finds no
  // feasible first step (or the forecast is empty).
  MpcDischargePolicy(const BatteryParams* battery_a, const BatteryParams* battery_b,
                     ForecastFn forecast, MpcConfig config = {});

  // Advances the policy's clock (drives both forecasting and re-planning).
  void Advance(Duration dt);
  Duration elapsed() const { return elapsed_; }

  // Number of DP re-plans executed so far (for overhead accounting).
  int replans() const { return replans_; }

  const std::vector<double>& Allocate(const BatteryViews& views, Power load) override;
  std::string_view name() const override { return "MPC-Discharge"; }

 private:
  const BatteryParams* battery_a_;
  const BatteryParams* battery_b_;
  ForecastFn forecast_;
  MpcConfig config_;
  RblDischargePolicy fallback_;

  Duration elapsed_ = Seconds(0.0);
  Duration next_replan_ = Seconds(0.0);
  bool has_plan_ = false;
  double planned_share_a_ = 0.5;
  int replans_ = 0;
  std::vector<double> shares_;
};

}  // namespace sdb

#endif  // SRC_CORE_MPC_POLICY_H_
