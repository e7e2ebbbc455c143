// Policy interfaces: a policy maps battery views + a power request to the
// ratio vector handed to the SDB microcontroller's Charge()/Discharge()
// APIs. The paper ships four instantaneously-"optimal" algorithms
// (CCB-Charge, RBL-Charge, CCB-Discharge, RBL-Discharge) that the runtime
// blends under OS directive parameters (§3.3); workload-aware policies
// (§5.2) layer future knowledge on top.
#ifndef SRC_CORE_POLICY_H_
#define SRC_CORE_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/battery_view.h"
#include "src/util/units.h"

namespace sdb {

// Both interfaces return their shares by reference into a buffer the policy
// owns, so a warmed-up replan allocates nothing. The reference stays valid
// until the same object's next Allocate; copy it to keep it longer.
class DischargePolicy {
 public:
  virtual ~DischargePolicy() = default;

  // Returns per-battery power fractions (non-negative, summing to 1 unless
  // every battery is unavailable, in which case all-zero).
  virtual const std::vector<double>& Allocate(const BatteryViews& views, Power load) = 0;

  virtual std::string_view name() const = 0;
};

class ChargePolicy {
 public:
  virtual ~ChargePolicy() = default;

  // Returns per-battery charge power fractions for an external supply.
  virtual const std::vector<double>& Allocate(const BatteryViews& views, Power supply) = 0;

  virtual std::string_view name() const = 0;
};

// Blends two ratio vectors into `*out`: weight * a + (1 - weight) * b,
// renormalised. `out` must be neither `a` nor `b`.
void BlendShares(const std::vector<double>& a, const std::vector<double>& b, double weight,
                 std::vector<double>* out);

}  // namespace sdb

#endif  // SRC_CORE_POLICY_H_
