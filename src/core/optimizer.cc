#include "src/core/optimizer.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

namespace {

// Safety margin below the electrical max-power point, matching the
// discharge circuit's headroom.
constexpr double kPowerMargin = 0.98;

// Electrical outcome of one battery carrying `power` for `dt` at state of
// charge `soc`.
struct LegOutcome {
  bool feasible = false;
  double current_a = 0.0;
  double loss_j = 0.0;
  double next_soc = 0.0;
};

LegOutcome SolveLeg(const BatteryParams& params, double soc, double power_w, double dt_s) {
  LegOutcome out;
  if (power_w <= 0.0) {
    out.feasible = true;
    out.next_soc = soc;
    return out;
  }
  if (soc <= 1e-6) {
    return out;
  }
  double ocv = params.ocv_vs_soc.Evaluate(soc);
  double r = params.dcir_vs_soc.Evaluate(soc);
  double p_max = kPowerMargin * ocv * ocv / (4.0 * r);
  if (power_w > p_max) {
    return out;
  }
  QuadraticRoots roots = SolveQuadratic(r, -ocv, power_w);
  if (roots.count == 0) {
    return out;
  }
  double i = roots.lo;
  if (i > params.max_discharge_current.value()) {
    return out;
  }
  double cap = params.nominal_capacity.value();
  double delta_soc = i * dt_s / cap;
  if (delta_soc > soc) {
    return out;  // Would run dry mid-step; the planner treats this as the end.
  }
  out.feasible = true;
  out.current_a = i;
  out.loss_j = i * i * r * dt_s;
  out.next_soc = soc - delta_soc;
  return out;
}

// Bilinear interpolation of a G x G value grid at continuous (a, b) in
// [0, 1] x [0, 1].
double InterpolateGrid(const std::vector<double>& grid, int g, double a, double b) {
  double fa = Clamp(a, 0.0, 1.0) * (g - 1);
  double fb = Clamp(b, 0.0, 1.0) * (g - 1);
  int ia = std::min(static_cast<int>(fa), g - 2);
  int ib = std::min(static_cast<int>(fb), g - 2);
  double ta = fa - ia;
  double tb = fb - ib;
  auto at = [&](int x, int y) { return grid[x * g + y]; };
  return (1.0 - ta) * ((1.0 - tb) * at(ia, ib) + tb * at(ia, ib + 1)) +
         ta * ((1.0 - tb) * at(ia + 1, ib) + tb * at(ia + 1, ib + 1));
}

}  // namespace

PlanResult PlanOptimalDischarge(const PlannerBattery& battery_a, const PlannerBattery& battery_b,
                                const PowerTrace& load, const PlanConfig& config) {
  SDB_CHECK(battery_a.params != nullptr && battery_b.params != nullptr);
  SDB_CHECK(config.soc_grid >= 2);
  SDB_CHECK(config.action_grid >= 2);
  const int g = config.soc_grid;
  const int actions = config.action_grid;
  const double dt = config.step.value();
  SDB_CHECK(dt > 0.0);
  const int steps = static_cast<int>(std::ceil(load.TotalDuration().value() / dt));

  PlanResult result;
  result.step = config.step;
  result.serviced = Seconds(0.0);
  result.predicted_loss = Joules(0.0);
  if (steps == 0) {
    result.full_trace_served = true;
    return result;
  }

  // Per-step mid-point loads.
  std::vector<double> loads(steps);
  for (int t = 0; t < steps; ++t) {
    loads[t] = load.Sample(Seconds((t + 0.5) * dt)).value();
  }

  // Backward induction. values[t] holds V_t over the SoC grid; V_steps = 0.
  std::vector<std::vector<double>> values(steps + 1,
                                          std::vector<double>(g * g, 0.0));
  std::vector<double> soc_axis(g);
  for (int i = 0; i < g; ++i) {
    soc_axis[i] = static_cast<double>(i) / (g - 1);
  }

  for (int t = steps - 1; t >= 0; --t) {
    const std::vector<double>& next = values[t + 1];
    std::vector<double>& current = values[t];
    double p = loads[t];
    for (int ia = 0; ia < g; ++ia) {
      for (int ib = 0; ib < g; ++ib) {
        double best = 0.0;
        for (int k = 0; k < actions; ++k) {
          double share = static_cast<double>(k) / (actions - 1);
          LegOutcome leg_a =
              SolveLeg(*battery_a.params, soc_axis[ia], share * p, dt);
          if (!leg_a.feasible) {
            continue;
          }
          LegOutcome leg_b =
              SolveLeg(*battery_b.params, soc_axis[ib], (1.0 - share) * p, dt);
          if (!leg_b.feasible) {
            continue;
          }
          double value = dt - config.loss_weight_s_per_j * (leg_a.loss_j + leg_b.loss_j) +
                         InterpolateGrid(next, g, leg_a.next_soc, leg_b.next_soc);
          best = std::max(best, value);
        }
        current[ia * g + ib] = best;
      }
    }
  }

  // Forward pass: follow the argmax from the initial state.
  double soc_a = Clamp(battery_a.initial_soc, 0.0, 1.0);
  double soc_b = Clamp(battery_b.initial_soc, 0.0, 1.0);
  double serviced_s = 0.0;
  double loss_j = 0.0;
  result.share_schedule.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    double p = loads[t];
    double best_value = -1.0;
    double best_share = 0.0;
    LegOutcome best_a, best_b;
    for (int k = 0; k < actions; ++k) {
      double share = static_cast<double>(k) / (actions - 1);
      LegOutcome leg_a = SolveLeg(*battery_a.params, soc_a, share * p, dt);
      if (!leg_a.feasible) {
        continue;
      }
      LegOutcome leg_b = SolveLeg(*battery_b.params, soc_b, (1.0 - share) * p, dt);
      if (!leg_b.feasible) {
        continue;
      }
      double value = dt - config.loss_weight_s_per_j * (leg_a.loss_j + leg_b.loss_j) +
                     InterpolateGrid(values[t + 1], g, leg_a.next_soc, leg_b.next_soc);
      if (value > best_value) {
        best_value = value;
        best_share = share;
        best_a = leg_a;
        best_b = leg_b;
      }
    }
    if (best_value < 0.0) {
      result.full_trace_served = false;
      result.serviced = Seconds(serviced_s);
      result.predicted_loss = Joules(loss_j);
      return result;
    }
    result.share_schedule.push_back(best_share);
    soc_a = best_a.next_soc;
    soc_b = best_b.next_soc;
    serviced_s += dt;
    loss_j += best_a.loss_j + best_b.loss_j;
  }
  result.full_trace_served = true;
  result.serviced = Seconds(serviced_s);
  result.predicted_loss = Joules(loss_j);
  return result;
}

PlanResult EvaluateFixedShare(const PlannerBattery& battery_a, const PlannerBattery& battery_b,
                              const PowerTrace& load, double share_a, const PlanConfig& config) {
  SDB_CHECK(battery_a.params != nullptr && battery_b.params != nullptr);
  share_a = Clamp(share_a, 0.0, 1.0);
  const double dt = config.step.value();
  const int steps = static_cast<int>(std::ceil(load.TotalDuration().value() / dt));

  PlanResult result;
  result.step = config.step;
  double soc_a = Clamp(battery_a.initial_soc, 0.0, 1.0);
  double soc_b = Clamp(battery_b.initial_soc, 0.0, 1.0);
  double serviced_s = 0.0;
  double loss_j = 0.0;
  for (int t = 0; t < steps; ++t) {
    double p = load.Sample(Seconds((t + 0.5) * dt)).value();
    // Mimic the hardware's spill-over: try the nominal split; if one leg
    // cannot carry its portion, push the remainder onto the other.
    struct Attempt {
      double pa;
      double pb;
    };
    Attempt attempts[] = {{share_a * p, (1.0 - share_a) * p}, {0.0, p}, {p, 0.0}};
    bool served = false;
    for (const Attempt& attempt : attempts) {
      LegOutcome leg_a = SolveLeg(*battery_a.params, soc_a, attempt.pa, dt);
      LegOutcome leg_b = SolveLeg(*battery_b.params, soc_b, attempt.pb, dt);
      if (leg_a.feasible && leg_b.feasible) {
        soc_a = leg_a.next_soc;
        soc_b = leg_b.next_soc;
        loss_j += leg_a.loss_j + leg_b.loss_j;
        served = true;
        break;
      }
    }
    if (!served) {
      result.full_trace_served = false;
      result.serviced = Seconds(serviced_s);
      result.predicted_loss = Joules(loss_j);
      result.share_schedule.assign(t, share_a);
      return result;
    }
    serviced_s += dt;
  }
  result.full_trace_served = true;
  result.serviced = Seconds(serviced_s);
  result.predicted_loss = Joules(loss_j);
  result.share_schedule.assign(steps, share_a);
  return result;
}

}  // namespace sdb
