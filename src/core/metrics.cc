#include "src/core/metrics.h"

#include <algorithm>
#include <cmath>

#include "src/core/allocator.h"
#include "src/util/check.h"
#include "src/util/curve.h"

namespace sdb {

double ComputeCcb(const BatteryViews& views) {
  if (views.empty()) {
    return 1.0;
  }
  double min_wear = views[0].wear_ratio;
  double max_wear = views[0].wear_ratio;
  for (const auto& v : views) {
    min_wear = std::min(min_wear, v.wear_ratio);
    max_wear = std::max(max_wear, v.wear_ratio);
  }
  // Unworn batteries would divide by zero; treat near-zero wear as balanced
  // with a floor of one tolerable-cycle-equivalent of wear.
  constexpr double kWearFloor = 1e-3;
  min_wear = std::max(min_wear, kWearFloor);
  max_wear = std::max(max_wear, kWearFloor);
  return max_wear / min_wear;
}

// The trapezoid points rise monotonically, so one segment hint carries from
// each point to the next (EvaluateHinted is bit-identical to Evaluate).
Energy RemainingEnergy(const BatteryView& view) {
  if (view.soc <= 0.0) {
    return Joules(0.0);
  }
  SDB_CHECK(view.ocv_curve != nullptr);
  constexpr int kPanels = 16;
  double h = view.soc / kPanels;
  double sum = 0.0;
  uint32_t hint = 0;
  for (int i = 0; i <= kPanels; ++i) {
    double weight = (i == 0 || i == kPanels) ? 0.5 : 1.0;
    sum += weight * view.ocv_curve->EvaluateHinted(i * h, &hint);
  }
  return Joules(sum * h * view.capacity.value());
}

Energy EstimateRbl(const BatteryViews& views, Power anticipated_load) {
  Energy total_energy;
  Voltage v_sum;
  int live = 0;
  for (const auto& v : views) {
    total_energy += RemainingEnergy(v);
    if (!v.is_empty) {
      v_sum += v.ocv;
      ++live;
    }
  }
  double p = anticipated_load.value();
  if (p <= 0.0 || live == 0 || total_energy.value() <= 0.0) {
    return total_energy;
  }
  Voltage v_bus = v_sum / live;

  // Split the anticipated load to minimise instantaneous loss and discount
  // the remaining energy by the resulting loss fraction.
  MarginalCostProblem problem;
  problem.total_current = anticipated_load / v_bus;
  problem.horizon = Seconds(0.0);  // Instantaneous discount.
  for (const auto& v : views) {
    problem.resistance.push_back(Max(v.dcir, Ohms(1e-6)));
    problem.dcir_growth.push_back(ResistancePerCharge(0.0));
    problem.current_cap.push_back(v.is_empty ? Amps(0.0) : v.max_discharge);
  }
  std::vector<Current> currents = SolveMarginalCostAllocation(problem);
  double loss_w = 0.0;
  for (size_t i = 0; i < views.size(); ++i) {
    loss_w += (problem.resistance[i] * currents[i] * currents[i]).value();
  }
  double useful_fraction = p / (p + loss_w);
  return total_energy * useful_fraction;
}

Power InstantaneousLoss(const BatteryViews& views, const std::vector<double>& shares,
                        Power load) {
  SDB_CHECK(shares.size() == views.size());
  double loss = 0.0;
  for (size_t i = 0; i < views.size(); ++i) {
    double p_i = shares[i] * load.value();
    if (p_i <= 0.0 || views[i].ocv.value() <= 0.0) {
      continue;
    }
    double y = p_i / views[i].ocv.value();
    loss += views[i].dcir.value() * y * y;
  }
  return Watts(loss);
}

}  // namespace sdb
