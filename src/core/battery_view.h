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

#include <type_traits>
#include <vector>

#include "src/util/units.h"

namespace sdb {

struct BatteryView {
  size_t index = 0;

  double soc = 0.0;              // Gauge estimate (dimensionless fraction).
  Voltage ocv;                   // From the manufacturer OCV curve at `soc`.
  Resistance dcir;               // From the manufacturer DCIR curve at `soc`.
  Resistance dcir_slope;         // d(DCIR)/d(SoC) at `soc` (typically < 0).
  Charge capacity;               // Full-charge capacity estimate.
  Energy remaining_energy;
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

// Views are rebuilt and copied on every replan; keeping them plain data lets
// those copies reuse a buffer without allocating.
static_assert(std::is_trivially_copyable_v<BatteryView>);

using BatteryViews = std::vector<BatteryView>;

}  // namespace sdb

#endif  // SRC_CORE_BATTERY_VIEW_H_
