#include "src/chem/pack.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

void BatteryPack::AddCell(Cell cell) {
  cells_.push_back(std::move(cell));
  open_circuit_.push_back(false);
  lane_results_.emplace_back();
}

void BatteryPack::SetOpenCircuit(size_t i, bool open) {
  SDB_CHECK(i < open_circuit_.size());
  open_circuit_[i] = open;
}

bool BatteryPack::AnyOpenCircuit() const {
  for (bool open : open_circuit_) {
    if (open) {
      return true;
    }
  }
  return false;
}

Charge BatteryPack::TotalRemainingCharge() const {
  Charge total = Coulombs(0.0);
  for (const auto& c : cells_) {
    total += c.RemainingCharge();
  }
  return total;
}

Energy BatteryPack::TotalRemainingEnergy() const {
  Energy total = Joules(0.0);
  for (const auto& c : cells_) {
    total += c.RemainingEnergy();
  }
  return total;
}

Energy BatteryPack::TotalLoss() const {
  Energy total = Joules(0.0);
  for (const auto& c : cells_) {
    total += c.total_loss();
  }
  return total;
}

bool BatteryPack::AllEmpty(double threshold) const {
  for (const auto& c : cells_) {
    if (!c.IsEmpty(threshold)) {
      return false;
    }
  }
  return true;
}

bool BatteryPack::AllFull(double threshold) const {
  for (const auto& c : cells_) {
    if (!c.IsFull(threshold)) {
      return false;
    }
  }
  return true;
}

void BatteryPack::StepLanes(const std::vector<soa::LaneRequest>& requests, Duration dt) {
  SDB_CHECK(requests.size() == cells_.size());
  uint64_t stepped = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (requests[i].op == soa::LaneOp::kIdle || open_circuit_[i]) {
      lane_results_[i] = soa::RawStepResult{};
      continue;
    }
    lane_results_[i] = cells_[i].StepLane(requests[i].op, requests[i].magnitude, dt);
    ++stepped;
  }
  if (stepped > 0) {
    soa::AddCellSteps(stepped);
  }
}

PackStepResult BatteryPack::StepParallelDischarge(Power power, Duration dt) {
  SDB_TRACE_SPAN("chem", "pack.step_parallel_discharge");
  SDB_CHECK(!cells_.empty());
  PackStepResult result;
  result.requested = power;
  result.cell_currents.assign(cells_.size(), Amps(0.0));

  // Collect live cells and their no-load voltages / resistances.
  struct Branch {
    size_t idx;
    double e;  // OCV - V_rc.
    double r;  // R0.
  };
  std::vector<Branch> branches;
  double e_max = 0.0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].IsEmpty() || open_circuit_[i]) {
      continue;
    }
    Branch b{i, cells_[i].NoLoadVoltage().value(), cells_[i].InternalResistance().value()};
    SDB_CHECK(b.r > 0.0);
    branches.push_back(b);
    e_max = std::max(e_max, b.e);
  }
  if (branches.empty() || e_max <= 0.0) {
    result.delivered = Watts(0.0);
    result.energy_lost = Joules(0.0);
    result.shortfall = power.value() > 0.0;
    return result;
  }

  // Power at shared bus voltage v: P(v) = v * sum_i max(0, (e_i - v)/r_i).
  auto bus_power = [&](double v) {
    double total_i = 0.0;
    for (const auto& b : branches) {
      total_i += std::max(0.0, (b.e - v) / b.r);
    }
    return v * total_i;
  };

  // P(v) is unimodal on [0, e_max]: locate the peak by ternary search, then
  // pick the efficient (high-voltage) root of P(v) == requested power.
  double lo = 0.0;
  double hi = e_max;
  for (int iter = 0; iter < 80; ++iter) {
    double m1 = lo + (hi - lo) / 3.0;
    double m2 = hi - (hi - lo) / 3.0;
    if (bus_power(m1) < bus_power(m2)) {
      lo = m1;
    } else {
      hi = m2;
    }
  }
  double v_peak = 0.5 * (lo + hi);
  double p_peak = bus_power(v_peak);

  double p_req = power.value();
  double v_bus;
  if (p_req >= p_peak) {
    v_bus = v_peak;
    result.shortfall = p_req > p_peak * (1.0 + 1e-9);
  } else {
    auto root = Bisect([&](double v) { return bus_power(v) - p_req; }, v_peak, e_max);
    v_bus = root.ok() ? root.value() : v_peak;
  }

  double delivered_j = 0.0;
  double lost_j = 0.0;
  for (const auto& b : branches) {
    double i_a = std::max(0.0, (b.e - v_bus) / b.r);
    StepResult step = cells_[b.idx].StepDischargeCurrent(Amps(i_a), dt);
    result.cell_currents[b.idx] = step.current;
    delivered_j += step.energy_at_terminals.value();
    lost_j += step.energy_lost.value();
  }
  result.delivered = Watts(delivered_j / dt.value());
  result.energy_lost = Joules(lost_j);
  if (result.delivered.value() < p_req * 0.995) {
    result.shortfall = true;
  }
  return result;
}

PackStepResult BatteryPack::StepSeriesDischarge(Power power, Duration dt) {
  SDB_TRACE_SPAN("chem", "pack.step_series_discharge");
  SDB_CHECK(!cells_.empty());
  PackStepResult result;
  result.requested = power;
  result.cell_currents.assign(cells_.size(), Amps(0.0));

  double e_sum = 0.0;
  double r_sum = 0.0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    if (c.IsEmpty() || open_circuit_[i]) {
      // A series chain with a dead (or disconnected) cell cannot conduct.
      result.delivered = Watts(0.0);
      result.energy_lost = Joules(0.0);
      result.shortfall = power.value() > 0.0;
      return result;
    }
    e_sum += c.NoLoadVoltage().value();
    r_sum += c.InternalResistance().value();
  }

  double i_a;
  bool shortfall = false;
  QuadraticRoots roots = SolveQuadratic(r_sum, -e_sum, power.value());
  if (roots.count == 0) {
    i_a = e_sum / (2.0 * r_sum);  // Max-power point of the chain.
    shortfall = true;
  } else {
    i_a = std::max(0.0, roots.lo);
  }

  double delivered_j = 0.0;
  double lost_j = 0.0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    StepResult step = cells_[i].StepDischargeCurrent(Amps(i_a), dt);
    result.cell_currents[i] = step.current;
    delivered_j += step.energy_at_terminals.value();
    lost_j += step.energy_lost.value();
  }
  result.delivered = Watts(delivered_j / dt.value());
  result.energy_lost = Joules(lost_j);
  result.shortfall = shortfall || result.delivered.value() < power.value() * 0.995;
  return result;
}

PackStepResult BatteryPack::StepEitherOrDischarge(Power power, Duration dt) {
  SDB_TRACE_SPAN("chem", "pack.step_either_or_discharge");
  SDB_CHECK(!cells_.empty());
  PackStepResult result;
  result.requested = power;
  result.cell_currents.assign(cells_.size(), Amps(0.0));

  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].IsEmpty() || open_circuit_[i]) {
      continue;
    }
    StepResult step = cells_[i].StepDischargePower(power, dt);
    result.cell_currents[i] = step.current;
    result.delivered = Watts(step.energy_at_terminals.value() / dt.value());
    result.energy_lost = step.energy_lost;
    result.shortfall = step.limited;
    return result;
  }
  result.delivered = Watts(0.0);
  result.energy_lost = Joules(0.0);
  result.shortfall = power.value() > 0.0;
  return result;
}

}  // namespace sdb
