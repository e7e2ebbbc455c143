// The two key metrics every SDB charging/discharging policy optimises
// (paper §3.3):
//
//   * CCB — Cycle Count Balance: max_i(lambda_i) / min_j(lambda_j), the
//     ratio between the most- and least-worn battery, wear normalised to
//     each battery's tolerable cycle count. Longevity is maximised by
//     keeping CCB near 1.
//   * RBL — Remaining Battery Lifetime: the useful charge left assuming no
//     future charging, i.e. remaining chemical energy discounted by the
//     resistive losses the anticipated load will incur.
#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include "src/core/battery_view.h"
#include "src/util/units.h"

namespace sdb {

// CCB >= 1; returns 1 for empty input or when every battery is unworn.
double ComputeCcb(const BatteryViews& views);

// Chemical energy still extractable at the view's SoC: a 16-panel
// trapezoid over its manufacturer OCV curve (`ocv_curve`, which must be
// set), times its capacity. No replan decision reads it, so views do not
// carry it; the RBL metric, the reserve policy (while a workload hint is set)
// and the OS battery service compute it on demand.
Energy RemainingEnergy(const BatteryView& view);

// RBL at an anticipated steady load: remaining energy minus the resistive
// loss it would suffer if the load were split to minimise losses. Returns
// energy (joules).
Energy EstimateRbl(const BatteryViews& views, Power anticipated_load);

// Instantaneous resistive loss if `load` is split across the views with the
// given power shares — the objective RBL-Discharge minimises.
Power InstantaneousLoss(const BatteryViews& views, const std::vector<double>& shares,
                        Power load);

}  // namespace sdb

#endif  // SRC_CORE_METRICS_H_
