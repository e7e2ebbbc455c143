#include "src/core/workload_aware.h"

#include <algorithm>

#include "src/core/allocator.h"
#include "src/core/metrics.h"
#include "src/util/check.h"

namespace sdb {

ReserveDischargePolicy::ReserveDischargePolicy(DischargePolicy* fallback,
                                               ReservePolicyConfig config)
    : fallback_(fallback), config_(config) {
  SDB_CHECK(fallback_ != nullptr);
  SDB_CHECK(config_.reserve_margin >= 1.0);
  SDB_CHECK(config_.bias >= 0.0 && config_.bias <= 1.0);
}

namespace {

// Sustained power a battery can deliver at its current limit (zero when it
// is empty or has no voltage).
double Deliverable(const BatteryView& v) {
  if (v.is_empty || v.ocv.value() <= 0.0) {
    return 0.0;
  }
  return std::max(0.0, ((v.ocv - v.dcir * v.max_discharge) * v.max_discharge).value());
}

}  // namespace

int ReserveDischargePolicy::ReservedIndex(const BatteryViews& views, Power load) const {
  (void)load;
  if (!hint_.has_value()) {
    return -1;
  }
  double need_w = hint_->expected_power.value();

  double total_deliverable = 0.0;
  for (const BatteryView& v : views) {
    total_deliverable += Deliverable(v);
  }

  // First choice: a battery that can sustain the hinted power alone, picked
  // for lowest loss fraction at that power (§5.2: preserve the *efficient*
  // battery for the run).
  int best = -1;
  double best_loss_fraction = 0.0;
  for (size_t i = 0; i < views.size(); ++i) {
    if (Deliverable(views[i]) < need_w) {
      continue;
    }
    const BatteryView& v = views[i];
    double y = need_w / v.ocv.value();
    double loss_fraction = y * v.dcir.value() / v.ocv.value();
    if (best < 0 || loss_fraction < best_loss_fraction) {
      best = static_cast<int>(i);
      best_loss_fraction = loss_fraction;
    }
  }
  if (best >= 0) {
    return best;
  }

  // Otherwise: the workload needs several batteries at once. Reserve the
  // battery whose absence would make it infeasible (the scarce capability —
  // e.g. the high power-density cell ahead of an EV hill climb). If even the
  // whole pack cannot serve it, reserving is pointless.
  if (total_deliverable < need_w) {
    return -1;
  }
  int critical = -1;
  Energy critical_energy;
  for (size_t i = 0; i < views.size(); ++i) {
    const double deliverable = Deliverable(views[i]);
    if (deliverable <= 0.0) {
      continue;
    }
    if (total_deliverable - deliverable < need_w) {
      // Among critical batteries, protect the scarcest one — the others are
      // big enough to be drawn on in the meantime.
      const Energy energy = RemainingEnergy(views[i]);
      if (critical < 0 || energy < critical_energy) {
        critical = static_cast<int>(i);
        critical_energy = energy;
      }
    }
  }
  return critical;
}

const std::vector<double>& ReserveDischargePolicy::Allocate(const BatteryViews& views,
                                                            Power load) {
  base_ = fallback_->Allocate(views, load);
  if (hint_.has_value() && hint_->time_until.value() <= 0.0) {
    // The anticipated workload has arrived: stop reserving and let the
    // fallback route it to the battery we preserved for exactly this.
    return base_;
  }
  int reserved = ReservedIndex(views, load);
  if (reserved < 0) {
    return base_;
  }
  const BatteryView& r = views[reserved];

  // Energy the hinted workload will need from the reserved battery,
  // inflated by the margin and by that battery's own loss fraction.
  Energy need = hint_->expected_power * hint_->duration * config_.reserve_margin;
  if (RemainingEnergy(r) >= need * 1.5) {
    // Comfortably above the reserve; no need to distort the split.
    return base_;
  }

  // Re-run the fallback with the reserved battery masked out; if the others
  // cannot carry any load, keep the original split.
  masked_ = views;
  masked_[reserved].is_empty = true;
  masked_[reserved].max_discharge = Amps(0.0);
  const std::vector<double>& shifted = fallback_->Allocate(masked_, load);
  double shifted_sum = 0.0;
  for (double s : shifted) {
    shifted_sum += s;
  }
  if (shifted_sum <= 0.0) {
    return base_;
  }
  BlendShares(shifted, base_, config_.bias, &shares_);
  return shares_;
}

}  // namespace sdb
