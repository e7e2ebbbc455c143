#include "src/chem/soa_kernel.h"

#include "src/obs/metrics.h"

namespace sdb {
namespace soa {

namespace {

obs::Counter& CellStepCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("sdb.chem.cell_steps");
  return *counter;
}

}  // namespace

uint64_t TotalCellSteps() { return CellStepCounter().value(); }

void AddCellSteps(uint64_t n) { CellStepCounter().Increment(n); }

}  // namespace soa
}  // namespace sdb
