// RBL-Discharge and RBL-Charge (paper §3.3): maximise the instantaneous
// Remaining Battery Lifetime by minimising total resistive loss, with the
// paper's DCIR-slope correction — batteries whose resistance will grow
// fastest as they drain are taxed a future-loss term (see
// src/core/allocator.h for the exact objective).
#ifndef SRC_CORE_RBL_POLICY_H_
#define SRC_CORE_RBL_POLICY_H_

#include "src/core/allocator.h"
#include "src/core/policy.h"

namespace sdb {

struct RblPolicyConfig {
  // Horizon of the future-loss (delta) term. Zero recovers the classic
  // instantaneous y_i ∝ 1/R_i split; the ablation bench sweeps this.
  Duration delta_horizon = Seconds(600.0);
  // Fraction of a battery's max current the policy will plan to (headroom
  // for the hardware's own clamping).
  double current_margin = 0.95;
};

class RblDischargePolicy final : public DischargePolicy {
 public:
  explicit RblDischargePolicy(RblPolicyConfig config = {});

  const std::vector<double>& Allocate(const BatteryViews& views, Power load) override;
  std::string_view name() const override { return "RBL-Discharge"; }

 private:
  RblPolicyConfig config_;
  MarginalCostProblem problem_;
  std::vector<Current> currents_;
  std::vector<double> shares_;
};

class RblChargePolicy final : public ChargePolicy {
 public:
  explicit RblChargePolicy(RblPolicyConfig config = {});

  const std::vector<double>& Allocate(const BatteryViews& views, Power supply) override;
  std::string_view name() const override { return "RBL-Charge"; }

 private:
  RblPolicyConfig config_;
  MarginalCostProblem problem_;
  std::vector<Current> currents_;
  std::vector<double> shares_;
};

}  // namespace sdb

#endif  // SRC_CORE_RBL_POLICY_H_
