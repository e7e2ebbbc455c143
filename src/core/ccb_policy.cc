#include "src/core/ccb_policy.h"

#include <algorithm>

#include "src/core/allocator.h"
#include "src/util/check.h"

namespace sdb {

namespace {

// Headroom-weighted shares: weight_i = (max wear − wear_i + band), zeroed
// for unavailable batteries, normalised, written into `*shares` (with
// `*eligible` as scratch). More headroom (less wear relative to chi_i) means
// a larger share, driving CCB toward 1.
void WearHeadroomShares(const BatteryViews& views, double band, bool for_charge,
                        std::vector<double>* shares, std::vector<bool>* eligible) {
  std::vector<double>& weights = *shares;
  weights.assign(views.size(), 0.0);
  eligible->assign(views.size(), false);
  double max_wear = 0.0;
  for (const auto& v : views) {
    max_wear = std::max(max_wear, v.wear_ratio);
  }
  for (size_t i = 0; i < views.size(); ++i) {
    const BatteryView& v = views[i];
    bool available = for_charge ? (!v.is_full && v.max_charge.value() > 0.0)
                                : (!v.is_empty && v.max_discharge.value() > 0.0);
    (*eligible)[i] = available;
    if (available) {
      weights[i] = max_wear - v.wear_ratio + band;
    }
  }
  weights = NormalizeShares(std::move(weights), eligible);
}

}  // namespace

CcbDischargePolicy::CcbDischargePolicy(CcbPolicyConfig config) : config_(config) {
  SDB_CHECK(config_.wear_band > 0.0);
}

const std::vector<double>& CcbDischargePolicy::Allocate(const BatteryViews& views, Power load) {
  (void)load;  // CCB shares depend on wear, not on the load level.
  WearHeadroomShares(views, config_.wear_band, /*for_charge=*/false, &shares_, &eligible_);
  return shares_;
}

CcbChargePolicy::CcbChargePolicy(CcbPolicyConfig config) : config_(config) {
  SDB_CHECK(config_.wear_band > 0.0);
}

const std::vector<double>& CcbChargePolicy::Allocate(const BatteryViews& views, Power supply) {
  (void)supply;
  WearHeadroomShares(views, config_.wear_band, /*for_charge=*/true, &shares_, &eligible_);
  return shares_;
}

}  // namespace sdb
