// The policy layer's view of one battery: gauge estimates fused with the
// manufacturer characteristic curves (the paper's runtime "calculates these
// power values ... based on the DCIR-SoC curves given by the manufacturer",
// §3.3). Policies never touch Cell objects directly — only these views —
// so they run identically against hardware, the emulator, or test fixtures.
//
// Every physical quantity is carried as an sdb::Quantity type; only SoC,
// wear and cycle counts are raw doubles (they are dimensionless).
#ifndef SRC_CORE_BATTERY_VIEW_H_
#define SRC_CORE_BATTERY_VIEW_H_

#include <memory>
#include <vector>

#include "src/util/units.h"

namespace sdb {

class PiecewiseLinearCurve;

struct BatteryView {
  size_t index = 0;

  double soc = 0.0;              // Gauge estimate (dimensionless fraction).
  Voltage ocv;                   // From the manufacturer OCV curve at `soc`.
  // The manufacturer OCV curve `ocv` came from, for RemainingEnergy()
  // (core/metrics.h). The view shares ownership of the battery's parameters,
  // so it stays valid after the pack that built it is gone: a view captured
  // from one rig can be replayed against another.
  std::shared_ptr<const PiecewiseLinearCurve> ocv_curve;
  Resistance dcir;               // From the manufacturer DCIR curve at `soc`.
  Resistance dcir_slope;         // d(DCIR)/d(SoC) at `soc` (typically < 0).
  Charge capacity;               // Full-charge capacity estimate.
  double wear_ratio = 0.0;       // lambda_i = cc_i / chi_i.
  double rated_cycles = 0.0;     // chi_i.
  Current max_discharge;         // Datasheet sustained limit.
  Current max_charge;            // Current charge acceptance (profile-limited).
  Temperature temperature = Kelvin(298.15);
  bool is_empty = false;
  bool is_full = false;

  // Resistance growth per coulomb drawn: |dR/dSoC| / capacity when draining
  // raises resistance; zero otherwise. This is the delta_i of the paper's
  // RBL derivation, normalised to charge units.
  ResistancePerCharge DischargeDcirGrowthPerCoulomb() const {
    if (capacity.value() <= 0.0) {
      return ResistancePerCharge(0.0);
    }
    Resistance growth = -dcir_slope;  // Draining lowers SoC; R rises when slope < 0.
    return growth.value() > 0.0 ? growth / capacity : ResistancePerCharge(0.0);
  }
};

// Views are rebuilt on every replan into a reused buffer. Copying one
// allocates nothing: the curve is shared, not copied.
using BatteryViews = std::vector<BatteryView>;

}  // namespace sdb

#endif  // SRC_CORE_BATTERY_VIEW_H_
