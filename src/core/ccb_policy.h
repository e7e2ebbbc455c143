// CCB-Charge and CCB-Discharge (paper §3.3): schedule batteries so the
// Cycle Count Balance — max wear ratio over min wear ratio — stays as close
// to 1 as possible. Both steer throughput toward the least-worn batteries
// (wear normalised to each battery's tolerable cycle count), so wear ratios
// converge.
#ifndef SRC_CORE_CCB_POLICY_H_
#define SRC_CORE_CCB_POLICY_H_

#include "src/core/policy.h"

namespace sdb {

struct CcbPolicyConfig {
  // Wear band (in wear-ratio units) added to every battery's headroom so the
  // policy degrades to an even split when wear is already balanced.
  double wear_band = 0.02;
};

class CcbDischargePolicy final : public DischargePolicy {
 public:
  explicit CcbDischargePolicy(CcbPolicyConfig config = {});

  const std::vector<double>& Allocate(const BatteryViews& views, Power load) override;
  std::string_view name() const override { return "CCB-Discharge"; }

 private:
  CcbPolicyConfig config_;
  std::vector<double> shares_;
  std::vector<bool> eligible_;
};

class CcbChargePolicy final : public ChargePolicy {
 public:
  explicit CcbChargePolicy(CcbPolicyConfig config = {});

  const std::vector<double>& Allocate(const BatteryViews& views, Power supply) override;
  std::string_view name() const override { return "CCB-Charge"; }

 private:
  CcbPolicyConfig config_;
  std::vector<double> shares_;
  std::vector<bool> eligible_;
};

}  // namespace sdb

#endif  // SRC_CORE_CCB_POLICY_H_
