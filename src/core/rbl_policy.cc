#include "src/core/rbl_policy.h"

#include <algorithm>

#include "src/core/allocator.h"
#include "src/util/check.h"

namespace sdb {

namespace {

// Mean OCV across available batteries; used to turn a power request into a
// target total current.
Voltage BusVoltage(const BatteryViews& views, bool for_charge) {
  Voltage sum;
  int count = 0;
  for (const auto& v : views) {
    bool available = for_charge ? !v.is_full : !v.is_empty;
    if (available && v.ocv.value() > 0.0) {
      sum += v.ocv;
      ++count;
    }
  }
  return count > 0 ? sum / count : Volts(0.0);
}

// Converts a current allocation into power fractions at each battery's OCV,
// written into `*shares`.
void CurrentsToPowerShares(const BatteryViews& views, const std::vector<Current>& currents,
                           std::vector<double>* shares) {
  shares->resize(views.size());
  double total = 0.0;
  for (size_t i = 0; i < views.size(); ++i) {
    (*shares)[i] = (currents[i] * views[i].ocv).value();
    total += (*shares)[i];
  }
  if (total <= 0.0) {
    shares->assign(views.size(), 0.0);
    return;
  }
  for (auto& s : *shares) {
    s /= total;
  }
}

// Empties the problem's per-battery vectors, keeping their capacity.
void ClearBatteries(MarginalCostProblem* problem) {
  problem->resistance.clear();
  problem->dcir_growth.clear();
  problem->current_cap.clear();
}

}  // namespace

RblDischargePolicy::RblDischargePolicy(RblPolicyConfig config) : config_(config) {
  SDB_CHECK(config_.delta_horizon.value() >= 0.0);
  SDB_CHECK(config_.current_margin > 0.0 && config_.current_margin <= 1.0);
}

const std::vector<double>& RblDischargePolicy::Allocate(const BatteryViews& views, Power load) {
  Voltage v_bus = BusVoltage(views, /*for_charge=*/false);
  if (views.empty() || v_bus.value() <= 0.0) {
    shares_.assign(views.size(), 0.0);
    return shares_;
  }
  ClearBatteries(&problem_);
  problem_.total_current = Max(load, Watts(0.0)) / v_bus;
  problem_.horizon = config_.delta_horizon;
  for (const auto& v : views) {
    problem_.resistance.push_back(Max(v.dcir, Ohms(1e-6)));
    problem_.dcir_growth.push_back(v.DischargeDcirGrowthPerCoulomb());
    problem_.current_cap.push_back(v.is_empty ? Amps(0.0)
                                              : v.max_discharge * config_.current_margin);
  }
  if (problem_.total_current.value() <= 0.0) {
    // Nothing to draw: fall back to the loss-optimal proportions so callers
    // always get a meaningful ratio vector to program.
    problem_.total_current = Amps(1.0);
  }
  SolveMarginalCostAllocation(problem_, &currents_);
  CurrentsToPowerShares(views, currents_, &shares_);
  return shares_;
}

RblChargePolicy::RblChargePolicy(RblPolicyConfig config) : config_(config) {}

const std::vector<double>& RblChargePolicy::Allocate(const BatteryViews& views, Power supply) {
  Voltage v_bus = BusVoltage(views, /*for_charge=*/true);
  if (views.empty() || v_bus.value() <= 0.0) {
    shares_.assign(views.size(), 0.0);
    return shares_;
  }
  ClearBatteries(&problem_);
  problem_.total_current = Max(supply, Watts(0.0)) / v_bus;
  // Charging toward full *lowers* DCIR (slope < 0 means resistance falls as
  // SoC rises), so the future-loss term does not apply; RBL-Charge is the
  // pure instantaneous-loss minimiser over charge acceptance limits.
  problem_.horizon = Seconds(0.0);
  for (const auto& v : views) {
    problem_.resistance.push_back(Max(v.dcir, Ohms(1e-6)));
    problem_.dcir_growth.push_back(ResistancePerCharge(0.0));
    problem_.current_cap.push_back(v.is_full ? Amps(0.0) : v.max_charge);
  }
  if (problem_.total_current.value() <= 0.0) {
    problem_.total_current = Amps(1.0);
  }
  SolveMarginalCostAllocation(problem_, &currents_);
  CurrentsToPowerShares(views, currents_, &shares_);
  return shares_;
}

}  // namespace sdb
