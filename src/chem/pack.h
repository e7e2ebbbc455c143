// Battery packs: collections of cells plus the *traditional* (non-SDB)
// interconnection baselines the paper compares against (§1, §6):
//   * parallel chains — cells share a terminal voltage, currents split
//     inversely with internal resistance, no software control;
//   * series chains — cells carry identical current, voltages add;
//   * either/or switching — exactly one battery powers the load at a time.
// The SDB hardware (src/hw) replaces these with per-cell power ratios.
#ifndef SRC_CHEM_PACK_H_
#define SRC_CHEM_PACK_H_

#include <vector>

#include "src/chem/cell.h"
#include "src/chem/soa_kernel.h"
#include "src/util/check.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// Outcome of a pack-level step.
struct PackStepResult {
  Power delivered;            // Power that reached the load.
  Power requested;            // What the load asked for.
  Energy energy_lost;         // Total resistive loss across cells this step.
  std::vector<Current> cell_currents;
  bool shortfall = false;     // True when the pack could not meet the request.
};

// A set of heterogeneous cells. Connection semantics are supplied by the
// step functions; the container itself is topology-agnostic.
class BatteryPack {
 public:
  BatteryPack() = default;

  void AddCell(Cell cell);

  size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }
  // Inline: the circuits call these per battery per tick.
  Cell& cell(size_t i) {
    SDB_CHECK(i < cells_.size());
    return cells_[i];
  }
  const Cell& cell(size_t i) const {
    SDB_CHECK(i < cells_.size());
    return cells_[i];
  }

  // Aggregate observers.
  Charge TotalRemainingCharge() const;
  Energy TotalRemainingEnergy() const;
  Energy TotalLoss() const;
  bool AllEmpty(double threshold = 1e-4) const;
  bool AllFull(double threshold = 1.0 - 1e-4) const;

  // Open-circuit dropout (fault injection): an open battery is electrically
  // disconnected — it neither sources nor accepts power — until the flag
  // clears. The hw layer drives these from its FaultInjector; chem stays
  // free of hw dependencies by holding plain flags.
  void SetOpenCircuit(size_t i, bool open);
  bool IsOpenCircuit(size_t i) const {
    SDB_CHECK(i < open_circuit_.size());
    return open_circuit_[i];
  }
  bool AnyOpenCircuit() const;

  // --- SDB per-tick stepping -------------------------------------------------

  // The SDB circuits' one way to step cells: lane i of `requests` drives
  // cell i, stepped in place through soa::StepLaneOnce in index order. An
  // open-circuit cell is treated as kIdle whatever its request (no current
  // flows into a disconnected cell). Idle cells are untouched and their
  // result reads all-zero; only stepped cells count toward
  // soa::TotalCellSteps(). Bit-identical to calling the cells' Step* methods
  // (they share one kernel; DESIGN.md §12). Results stay readable via
  // lane_result(i) until the next StepLanes call.
  void StepLanes(const std::vector<soa::LaneRequest>& requests, Duration dt);
  const soa::RawStepResult& lane_result(size_t i) const {
    SDB_CHECK(i < lane_results_.size());
    return lane_results_[i];
  }

  // --- Traditional interconnect baselines -----------------------------------

  // Parallel chain: solves the shared terminal voltage V such that the cell
  // currents (OCV_i - V_rc_i - V)/R0_i sum to the load current implied by
  // `power`, then steps every cell at its share. Cells at 0% SoC drop out.
  PackStepResult StepParallelDischarge(Power power, Duration dt);

  // Series chain: one current flows through every cell; the chain voltage is
  // the sum of terminal voltages. Discharge ends when any cell empties.
  PackStepResult StepSeriesDischarge(Power power, Duration dt);

  // Either/or switching: the lowest-index non-empty cell carries the whole
  // load (how pre-SDB multi-battery products behave, §6).
  PackStepResult StepEitherOrDischarge(Power power, Duration dt);

 private:
  std::vector<Cell> cells_;
  std::vector<bool> open_circuit_;
  // StepLanes' per-cell results, one per cell (sized by AddCell, so a tick
  // never allocates).
  std::vector<soa::RawStepResult> lane_results_;
};

}  // namespace sdb

#endif  // SRC_CHEM_PACK_H_
