// The Lagrangian current allocator shared by the RBL policies and the RBL
// metric (paper §3.3, "the RBL-Discharge algorithm ... balances
// R'_i = R_i + delta_i * y_i ... where lambda is a Lagrangian multiplier").
//
// We cast the balancing as marginal-cost equalisation. Per battery, the
// cost of carrying current y is
//
//   cost_i(y) = R_i * y^2            (instantaneous resistive loss)
//             + H * g_i * y^3        (future loss: drawing charge raises the
//                                     DCIR at g_i ohm/coulomb for a horizon
//                                     of H seconds)
//
// so the marginal cost mc_i(y) = 2 R_i y + 3 H g_i y^2 is strictly
// increasing. The optimum shares a multiplier lambda with mc_i(y_i) =
// lambda for every battery below its cap. The lambda returned is, bit for
// bit, the one a fixed 120-step bisection finds; the solver reaches it in
// about ten evaluations (DESIGN.md §12, "Allocator").
// With g == 0 this reduces to the classic loss-minimising y_i ∝ 1/R_i.
#ifndef SRC_CORE_ALLOCATOR_H_
#define SRC_CORE_ALLOCATOR_H_

#include <vector>

#include "src/util/units.h"

namespace sdb {

struct MarginalCostProblem {
  std::vector<Resistance> resistance;            // R_i > 0 for eligible batteries.
  std::vector<ResistancePerCharge> dcir_growth;  // g_i >= 0 (ohm per coulomb drawn).
  std::vector<Current> current_cap;              // y_max_i >= 0.
  Current total_current;                         // Target sum of y_i.
  Duration horizon = Seconds(600.0);             // H in the future-loss term.
};

// Writes currents y_i >= 0 with sum == min(total, sum of caps) into `*out`
// (resized to the problem's size, reusing its capacity), equalising marginal
// costs among uncapped batteries. Batteries with zero cap get zero.
void SolveMarginalCostAllocation(const MarginalCostProblem& problem, std::vector<Current>* out);

// The same solve, returning a fresh vector.
std::vector<Current> SolveMarginalCostAllocation(const MarginalCostProblem& problem);

// Normalises a non-negative vector to sum to 1; all-zero input becomes a
// uniform vector over entries whose `eligible` flag is set (or truly uniform
// when no flags are given).
std::vector<double> NormalizeShares(std::vector<double> weights,
                                    const std::vector<bool>* eligible = nullptr);

// Degraded-mode exclusion: zeroes the shares of excluded batteries and
// renormalises the rest to sum to 1. When every surviving share is zero the
// result is uniform over the non-excluded batteries; when every battery is
// excluded the result is all zeros (the caller must not program ratios).
// Rewrites `*shares` in place with `*eligible` as the caller's scratch, so a
// warmed-up call allocates nothing.
void ApplyDegradedExclusion(const std::vector<bool>& excluded, std::vector<double>* shares,
                            std::vector<bool>* eligible);

// Reintegration ramp: scales each share by ramp[i] in [0, 1] and
// renormalises over batteries with ramp > 0, so a battery returning from a
// fault re-enters the split gradually instead of at full share. When every
// ramp is exactly 1 the shares are left bit-identically unchanged. In place,
// with `*eligible` as scratch.
void ApplyReintegrationRamp(const std::vector<double>& ramp, std::vector<double>* shares,
                            std::vector<bool>* eligible);

}  // namespace sdb

#endif  // SRC_CORE_ALLOCATOR_H_
