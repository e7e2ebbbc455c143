#include "src/core/blended_policy.h"

#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

BlendedDischargePolicy::BlendedDischargePolicy(DischargePolicy* a, DischargePolicy* b,
                                               double weight_a)
    : a_(a), b_(b), weight_(Clamp(weight_a, 0.0, 1.0)) {
  SDB_CHECK(a_ != nullptr && b_ != nullptr);
}

void BlendedDischargePolicy::set_weight(double weight_a) { weight_ = Clamp(weight_a, 0.0, 1.0); }

const std::vector<double>& BlendedDischargePolicy::Allocate(const BatteryViews& views,
                                                         Power load) {
  if (weight_ >= 1.0) {
    shares_ = a_->Allocate(views, load);
  } else if (weight_ <= 0.0) {
    shares_ = b_->Allocate(views, load);
  } else {
    BlendShares(a_->Allocate(views, load), b_->Allocate(views, load), weight_, &shares_);
  }
  return shares_;
}

BlendedChargePolicy::BlendedChargePolicy(ChargePolicy* a, ChargePolicy* b, double weight_a)
    : a_(a), b_(b), weight_(Clamp(weight_a, 0.0, 1.0)) {
  SDB_CHECK(a_ != nullptr && b_ != nullptr);
}

void BlendedChargePolicy::set_weight(double weight_a) { weight_ = Clamp(weight_a, 0.0, 1.0); }

const std::vector<double>& BlendedChargePolicy::Allocate(const BatteryViews& views,
                                                         Power supply) {
  if (weight_ >= 1.0) {
    shares_ = a_->Allocate(views, supply);
  } else if (weight_ <= 0.0) {
    shares_ = b_->Allocate(views, supply);
  } else {
    BlendShares(a_->Allocate(views, supply), b_->Allocate(views, supply), weight_, &shares_);
  }
  return shares_;
}

}  // namespace sdb
