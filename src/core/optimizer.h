// Offline globally-optimal discharge planning.
//
// The paper is explicit that its RBL algorithms are optimal "only in an
// instantaneous sense ... if we had knowledge of the future workload, we
// could improve upon the above instantaneously-optimal algorithms by making
// temporarily sub-optimal choices from which the system can profit later"
// (§3.3). This module makes that claim measurable: given the *entire*
// future load trace, a dynamic program over a discretised (SoC_A, SoC_B)
// grid computes the discharge-ratio schedule that maximises serviced time
// and, among maximal schedules, minimises resistive losses.
//
// The DP plans on the same abstraction the runtime's policies see
// (manufacturer OCV/DCIR curves + coulomb counting); the resulting schedule
// is then replayed against the full emulator by the bench. Complexity is
// O(T * G^2 * A) for T steps, G SoC grid levels per battery and A candidate
// splits — a 24 h day at 5-minute steps with an 81x81 grid solves in well
// under a second.
#ifndef SRC_CORE_OPTIMIZER_H_
#define SRC_CORE_OPTIMIZER_H_

#include <vector>

#include "src/chem/battery_params.h"
#include "src/emu/trace.h"
#include "src/util/units.h"

namespace sdb {

struct PlannerBattery {
  const BatteryParams* params = nullptr;
  double initial_soc = 1.0;
};

struct PlanConfig {
  int soc_grid = 81;            // Grid levels per battery (>= 2).
  int action_grid = 21;         // Candidate splits of the load (>= 2).
  Duration step = Minutes(5.0); // Planning time step.
  // Loss tie-break weight: one joule of loss costs this many seconds of
  // objective. Small enough never to trade away serviced time.
  double loss_weight_s_per_j = 1e-4;
};

struct PlanResult {
  Duration serviced;               // How long the plan can carry the load.
  Energy predicted_loss;           // Resistive loss along the optimal path.
  std::vector<double> share_schedule;  // Battery A's power share per step.
  Duration step;                   // The planning step (copied from config).
  bool full_trace_served = false;
};

// Plans the two-battery discharge schedule for `load`. Both params must
// outlive the call.
PlanResult PlanOptimalDischarge(const PlannerBattery& battery_a, const PlannerBattery& battery_b,
                                const PowerTrace& load, const PlanConfig& config = {});

// Evaluates a *fixed* share (battery A's fraction) on the planner's own
// model: the reference the optimizer tests hold the DP plan against.
PlanResult EvaluateFixedShare(const PlannerBattery& battery_a, const PlannerBattery& battery_b,
                              const PowerTrace& load, double share_a,
                              const PlanConfig& config = {});

}  // namespace sdb

#endif  // SRC_CORE_OPTIMIZER_H_
