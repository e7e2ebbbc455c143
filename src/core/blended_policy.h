// Directive-parameter blending (paper §3.3): the runtime weighs the four
// "optimal" algorithms by the Charging / Discharging Directive Parameters
// the OS hands it. Weight 1 is pure RBL (maximise useful charge now),
// weight 0 is pure CCB (balance wear / protect longevity).
#ifndef SRC_CORE_BLENDED_POLICY_H_
#define SRC_CORE_BLENDED_POLICY_H_

#include "src/core/policy.h"

namespace sdb {

class BlendedDischargePolicy final : public DischargePolicy {
 public:
  // Both policies must outlive the blend. `weight_a` in [0,1] favours `a`.
  BlendedDischargePolicy(DischargePolicy* a, DischargePolicy* b, double weight_a);

  void set_weight(double weight_a);
  double weight() const { return weight_; }

  const std::vector<double>& Allocate(const BatteryViews& views, Power load) override;
  std::string_view name() const override { return "Blended-Discharge"; }

 private:
  DischargePolicy* a_;
  DischargePolicy* b_;
  double weight_;
  std::vector<double> shares_;
};

class BlendedChargePolicy final : public ChargePolicy {
 public:
  BlendedChargePolicy(ChargePolicy* a, ChargePolicy* b, double weight_a);

  void set_weight(double weight_a);
  double weight() const { return weight_; }

  const std::vector<double>& Allocate(const BatteryViews& views, Power supply) override;
  std::string_view name() const override { return "Blended-Charge"; }

 private:
  ChargePolicy* a_;
  ChargePolicy* b_;
  double weight_;
  std::vector<double> shares_;
};

}  // namespace sdb

#endif  // SRC_CORE_BLENDED_POLICY_H_
