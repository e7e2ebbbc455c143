// Workload-aware policies (paper §5.2 and §3.3's closing observation):
// instantaneously-optimal algorithms are not globally optimal — with
// knowledge of an impending workload the runtime can make temporarily
// sub-optimal choices that pay off later, e.g. preserving the efficient
// battery for a high-power run, or preserving the fast-charging battery for
// a user who depends on quick top-ups.
#ifndef SRC_CORE_WORKLOAD_AWARE_H_
#define SRC_CORE_WORKLOAD_AWARE_H_

#include <optional>

#include "src/core/policy.h"
#include "src/util/units.h"

namespace sdb {

// A hint from the OS about an anticipated high-power workload (from the
// user's calendar/assistant per §7, or a learned schedule per §5.2).
struct WorkloadHint {
  Duration time_until;   // When the workload is expected to start.
  Power expected_power;  // Sustained power it will need.
  Duration duration;     // How long it lasts.
};

struct ReservePolicyConfig {
  // Energy multiplier on the hinted workload's needs kept in reserve.
  double reserve_margin = 1.15;
  // How strongly to bias away from the reserved battery while reserving
  // (1 == draw nothing from it unless others cannot carry the load).
  double bias = 1.0;
};

// Preserves the battery best able to serve the hinted workload (highest
// usable power per unit loss) by shifting load onto the other batteries
// until the reserve target is met; otherwise defers to a fallback policy.
class ReserveDischargePolicy final : public DischargePolicy {
 public:
  // `fallback` must outlive the policy.
  ReserveDischargePolicy(DischargePolicy* fallback, ReservePolicyConfig config = {});

  void SetHint(std::optional<WorkloadHint> hint) { hint_ = hint; }
  const std::optional<WorkloadHint>& hint() const { return hint_; }

  // Index of the battery the policy would currently reserve (-1 if none).
  int ReservedIndex(const BatteryViews& views, Power load) const;

  const std::vector<double>& Allocate(const BatteryViews& views, Power load) override;
  std::string_view name() const override { return "Reserve-Discharge"; }

 private:
  DischargePolicy* fallback_;
  ReservePolicyConfig config_;
  std::optional<WorkloadHint> hint_;
  // The fallback's unmasked split, copied out of its buffer before the
  // masked re-run overwrites it.
  std::vector<double> base_;
  BatteryViews masked_;
  std::vector<double> shares_;  // The blended split.
};

}  // namespace sdb

#endif  // SRC_CORE_WORKLOAD_AWARE_H_
