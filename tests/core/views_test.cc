// Differential test for SdbRuntime's view building (DESIGN.md §12, "Update
// hot path"). BuildViews evaluates the manufacturer curves through segment
// hints the runtime keeps across calls, and leaves the remaining-energy
// integral to RemainingEnergy(view). The specification is a frozen copy of
// the view builder from before either change: plain Evaluate and Derivative,
// and the 16-panel integral computed with every view. Every view field and
// the integral must match it bit for bit.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/core/metrics.h"
#include "src/core/rbl_policy.h"
#include "src/core/runtime.h"
#include "src/core/workload_aware.h"
#include "src/util/numeric.h"
#include "src/util/rng.h"

namespace sdb {

// Reads and overwrites the runtime's per-battery curve hints, which no
// public call exposes.
class RuntimeViewHintsPeer {
 public:
  static uint32_t& ocv(SdbRuntime& runtime, size_t i) { return runtime.view_hints_.at(i).ocv; }
  static uint32_t& dcir(SdbRuntime& runtime, size_t i) {
    return runtime.view_hints_.at(i).dcir;
  }
};

namespace {

struct ReferenceView {
  BatteryView view;
  Energy remaining_energy;
};

// Frozen copy of the integral as BuildViewsFrom computed it for every view.
Energy ReferenceRemainingEnergy(const BatteryParams& params, double soc, Charge capacity) {
  if (soc <= 0.0) {
    return Joules(0.0);
  }
  constexpr int kPanels = 16;
  double h = soc / kPanels;
  double sum = 0.0;
  uint32_t hint = 0;
  for (int i = 0; i <= kPanels; ++i) {
    double weight = (i == 0 || i == kPanels) ? 0.5 : 1.0;
    sum += weight * params.ocv_vs_soc.EvaluateHinted(i * h, &hint);
  }
  return Joules(sum * h * capacity.value());
}

// Frozen copy of BuildViewsFrom's per-battery body with unhinted lookups.
// `ocv_curve` is the one field the old views did not have.
ReferenceView BuildReferenceView(size_t i, const Cell& cell, const BatteryStatus& status,
                                 const RuntimeConfig& config) {
  const BatteryParams& params = cell.params();
  BatteryView v;
  v.index = i;
  v.soc = status.soc;
  v.ocv = Volts(params.ocv_vs_soc.Evaluate(v.soc));
  v.ocv_curve = cell.shared_ocv_curve();
  v.dcir = Ohms(params.dcir_vs_soc.Evaluate(v.soc));
  v.dcir_slope = Ohms(params.dcir_vs_soc.Derivative(v.soc));
  v.capacity = status.full_capacity;
  const Energy remaining_energy = ReferenceRemainingEnergy(params, v.soc, v.capacity);
  v.rated_cycles = params.rated_cycle_count;
  v.wear_ratio = params.rated_cycle_count > 0.0
                     ? status.cycle_count / params.rated_cycle_count
                     : 0.0;
  v.max_discharge = params.max_discharge_current;
  v.max_charge = params.max_charge_current;
  if (v.soc >= 0.8) {
    v.max_charge = Min(v.max_charge, params.CRate(0.3));
  }
  v.temperature = status.temperature;
  double t_lo = config.derate_start.value();
  double t_hi = config.derate_cutoff.value();
  if (v.temperature.value() > t_lo) {
    double scale = Clamp((t_hi - v.temperature.value()) / (t_hi - t_lo), 0.0, 1.0);
    v.max_discharge *= scale;
    v.max_charge *= scale;
  }
  v.is_empty = v.soc <= 1e-3;
  v.is_full = v.soc >= 1.0 - 1e-3;
  return ReferenceView{v, remaining_energy};
}

// Field by field, as bytes: NaNs must match payload and all, and the
// struct's padding is not compared.
void ExpectSameView(const BatteryView& got, const ReferenceView& want, const std::string& where) {
  auto same = [&](const char* field, const auto& a, const auto& b) {
    static_assert(sizeof(a) == sizeof(b));
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << where << ": " << field;
  };
  const BatteryView& w = want.view;
  same("index", got.index, w.index);
  same("soc", got.soc, w.soc);
  same("ocv", got.ocv, w.ocv);
  same("ocv_curve", got.ocv_curve.get(), w.ocv_curve.get());
  same("dcir", got.dcir, w.dcir);
  same("dcir_slope", got.dcir_slope, w.dcir_slope);
  same("capacity", got.capacity, w.capacity);
  same("wear_ratio", got.wear_ratio, w.wear_ratio);
  same("rated_cycles", got.rated_cycles, w.rated_cycles);
  same("max_discharge", got.max_discharge, w.max_discharge);
  same("max_charge", got.max_charge, w.max_charge);
  same("temperature", got.temperature, w.temperature);
  same("is_empty", got.is_empty, w.is_empty);
  same("is_full", got.is_full, w.is_full);
  const Energy energy = RemainingEnergy(got);
  same("RemainingEnergy", energy, want.remaining_energy);
}

bool SegmentHolds(const PiecewiseLinearCurve& curve, uint32_t hint, double x) {
  const auto& points = curve.points();
  return hint < points.size() - 1 && points[hint].first <= x && x < points[hint + 1].first;
}

// Every battery of the library in one pack.
SdbMicrocontroller MakeLibraryMicro() {
  std::vector<Cell> cells;
  for (BatteryParams& params : MakeBatteryLibrary()) {
    cells.emplace_back(std::move(params), 0.5);
  }
  return MakeDefaultMicrocontroller(std::move(cells), 5);
}

// Next gauge SoC of one battery's walk: mostly drifting up or down, with
// jumps, exact knots of either curve (and their neighbouring doubles), and
// values no healthy gauge reports (NaN, above 1, below 0).
double NextSoc(double soc, const BatteryParams& params, Rng& rng) {
  if (!std::isfinite(soc) || soc < 0.0 || soc > 1.0) {
    soc = rng.NextDouble();
  }
  switch (rng.NextBounded(12)) {
    case 0:
      return rng.NextDouble();
    case 1:
    case 2: {
      const auto& points = rng.Bernoulli(0.5) ? params.ocv_vs_soc.points()
                                              : params.dcir_vs_soc.points();
      const double knot = points[rng.NextBounded(points.size())].first;
      switch (rng.NextBounded(3)) {
        case 0:
          return std::nextafter(knot, -1.0);
        case 1:
          return std::nextafter(knot, 2.0);
        default:
          return knot;
      }
    }
    case 3:
      return std::numeric_limits<double>::quiet_NaN();
    case 4:
      return 1.0 + rng.Uniform(0.0, 0.5);
    case 5:
      return -rng.Uniform(0.0, 0.1);
    case 6:
    case 7:
    case 8:
      return Clamp(soc + rng.Uniform(0.0, 0.03), 0.0, 1.0);
    default:
      return Clamp(soc - rng.Uniform(0.0, 0.03), 0.0, 1.0);
  }
}

TEST(RuntimeViewsDifferentialTest, HintedViewsMatchTheFrozenBuilderOnEveryLibraryBattery) {
  SdbMicrocontroller micro = MakeLibraryMicro();
  const size_t n = micro.battery_count();
  ASSERT_EQ(n, MakeBatteryLibrary().size());
  RuntimeConfig config;
  SdbRuntime runtime(&micro, config);
  Rng rng(97);
  std::vector<double> soc(n, 0.5);
  for (int step = 0; step < 1500; ++step) {
    MicroState state = micro.SaveState();
    for (size_t i = 0; i < n; ++i) {
      soc[i] = NextSoc(soc[i], micro.pack().cell(i).params(), rng);
      state.gauges[i].soc_estimate = soc[i];
      // Some batteries run hot enough to be derated or cut off.
      if (rng.Bernoulli(0.1)) {
        state.lanes[i].thermal.temp_k = rng.Uniform(290.0, 340.0);
      }
    }
    ASSERT_TRUE(micro.RestoreState(state).ok());
    // The hints are a cache that is safe at any value, stale or out of
    // range alike.
    if (rng.Bernoulli(0.2)) {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t garbage[] = {static_cast<uint32_t>(rng.NextBounded(40)), 0xffffffffu};
        RuntimeViewHintsPeer::ocv(runtime, i) = garbage[rng.NextBounded(2)];
        RuntimeViewHintsPeer::dcir(runtime, i) = garbage[rng.NextBounded(2)];
      }
    }

    const BatteryViews views = runtime.BuildViews();
    const std::vector<BatteryStatus> statuses = micro.QueryBatteryStatus();
    ASSERT_EQ(views.size(), n);
    for (size_t i = 0; i < n; ++i) {
      const Cell& cell = micro.pack().cell(i);
      const BatteryParams& params = cell.params();
      ExpectSameView(views[i], BuildReferenceView(i, cell, statuses[i], config),
                     "step " + std::to_string(step) + " battery " + params.name +
                         " soc " + std::to_string(statuses[i].soc));
      // Inside both curves each hint sits on its own curve's segment, so
      // the next call at a nearby SoC searches neither.
      const double x = statuses[i].soc;
      const PiecewiseLinearCurve& ocv = params.ocv_vs_soc;
      const PiecewiseLinearCurve& dcir = params.dcir_vs_soc;
      if (x > ocv.min_x() && x < ocv.max_x()) {
        EXPECT_TRUE(SegmentHolds(ocv, RuntimeViewHintsPeer::ocv(runtime, i), x))
            << "step " << step << " battery " << params.name << " soc " << x;
      }
      if (x > dcir.min_x() && x < dcir.max_x()) {
        EXPECT_TRUE(SegmentHolds(dcir, RuntimeViewHintsPeer::dcir(runtime, i), x))
            << "step " << step << " battery " << params.name << " soc " << x;
      }
    }
    if (HasFailure()) {
      return;
    }
  }
}

// A benchmark or an OS service may keep views after the microcontroller
// that built them is gone (a captured sample replayed against a fresh rig),
// so a view must not point into its pack. Under ASan, a view that did would
// read freed memory here.
TEST(RuntimeViewsLifetimeTest, ViewsOutliveTheMicrocontrollerThatBuiltThem) {
  const Power load = Watts(12.0);
  // A workload big enough that the reserve policy ranks batteries by
  // their remaining energy.
  const WorkloadHint hint{Seconds(600.0), Watts(40.0), Seconds(3600.0)};
  RuntimeConfig config;
  BatteryViews views;
  std::vector<Energy> energies;
  Energy rbl;
  std::optional<int> reserved;
  std::vector<double> shares;
  {
    SdbMicrocontroller micro = MakeLibraryMicro();
    SdbRuntime runtime(&micro, config);
    views = runtime.BuildViews();
    for (const BatteryView& v : views) {
      energies.push_back(RemainingEnergy(v));
    }
    rbl = EstimateRbl(views, config.anticipated_load);
    RblDischargePolicy fallback(config.rbl);
    ReserveDischargePolicy reserve(&fallback, config.reserve);
    reserve.SetHint(hint);
    reserved = reserve.ReservedIndex(views, load);
    shares = reserve.Allocate(views, load);
  }
  // The reserve policy reads RemainingEnergy only once it reserves one.
  ASSERT_GE(*reserved, 0);
  // A second pack takes the freed memory's place, as a replay rig would.
  SdbMicrocontroller replay = MakeLibraryMicro();
  SdbRuntime replay_runtime(&replay, config);
  ASSERT_EQ(views.size(), energies.size());
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(RemainingEnergy(views[i]).value(), energies[i].value()) << "battery " << i;
    EXPECT_GT(energies[i].value(), 0.0) << "battery " << i;
  }
  EXPECT_EQ(EstimateRbl(views, config.anticipated_load).value(), rbl.value());
  RblDischargePolicy fallback(config.rbl);
  ReserveDischargePolicy reserve(&fallback, config.reserve);
  reserve.SetHint(hint);
  EXPECT_EQ(reserve.ReservedIndex(views, load), *reserved);
  EXPECT_EQ(reserve.Allocate(views, load), shares);
}

}  // namespace
}  // namespace sdb
