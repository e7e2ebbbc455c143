// Shared fixtures for policy-layer tests: hand-built BatteryViews with
// controlled resistance, wear and capacity.
#ifndef TESTS_CORE_TEST_VIEWS_H_
#define TESTS_CORE_TEST_VIEWS_H_

#include <memory>

#include "src/core/battery_view.h"
#include "src/util/curve.h"

namespace sdb {
namespace testing_views {

inline BatteryView MakeView(size_t index, double soc, double dcir_ohm, double wear_ratio = 0.0,
                            double capacity_mah = 3000.0) {
  BatteryView v;
  v.index = index;
  v.soc = soc;
  v.ocv = Volts(3.4 + 0.8 * soc);
  v.dcir = Ohms(dcir_ohm);
  v.dcir_slope = Ohms(-dcir_ohm);  // Resistance roughly doubles toward empty.
  v.capacity = MilliAmpHours(capacity_mah);
  // A flat 3.7 V OCV curve, so RemainingEnergy(v) is capacity x 3.7 V x soc.
  static const auto kFlatOcv = std::make_shared<const PiecewiseLinearCurve>(
      PiecewiseLinearCurve::FromTable({{0.0, 3.7}, {1.0, 3.7}}));
  v.ocv_curve = kFlatOcv;
  v.wear_ratio = wear_ratio;
  v.rated_cycles = 800.0;
  v.max_discharge = Amps(2.0 * capacity_mah / 1000.0);
  v.max_charge = Amps(0.7 * capacity_mah / 1000.0);
  v.is_empty = soc <= 1e-3;
  v.is_full = soc >= 1.0 - 1e-3;
  return v;
}

}  // namespace testing_views
}  // namespace sdb

#endif  // TESTS_CORE_TEST_VIEWS_H_
