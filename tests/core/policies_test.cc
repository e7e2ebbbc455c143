#include <numeric>

#include <gtest/gtest.h>

#include "src/core/blended_policy.h"
#include "src/core/ccb_policy.h"
#include "src/core/metrics.h"
#include "src/core/rbl_policy.h"
#include "src/core/workload_aware.h"
#include "tests/core/test_views.h"

namespace sdb {
namespace {

using testing_views::MakeView;

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

// ---------- RBL-Discharge ----------

TEST(RblDischargeTest, SharesSumToOne) {
  RblDischargePolicy policy;
  BatteryViews views = {MakeView(0, 1.0, 0.03), MakeView(1, 1.0, 0.09)};
  auto d = policy.Allocate(views, Watts(5.0));
  EXPECT_NEAR(Sum(d), 1.0, 1e-9);
}

TEST(RblDischargeTest, FavoursLowResistanceBattery) {
  RblDischargePolicy policy(RblPolicyConfig{.delta_horizon = Seconds(0.0)});
  BatteryViews views = {MakeView(0, 1.0, 0.03), MakeView(1, 1.0, 0.09)};
  auto d = policy.Allocate(views, Watts(5.0));
  EXPECT_GT(d[0], d[1]);
  // With delta = 0, current ratio ~ R1/R0 = 3 (power shares similar since
  // OCVs match).
  EXPECT_NEAR(d[0] / d[1], 3.0, 0.3);
}

TEST(RblDischargeTest, EmptyBatteryExcluded) {
  RblDischargePolicy policy;
  BatteryViews views = {MakeView(0, 0.0, 0.03), MakeView(1, 0.8, 0.09)};
  auto d = policy.Allocate(views, Watts(5.0));
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_NEAR(d[1], 1.0, 1e-9);
}

TEST(RblDischargeTest, AllEmptyGivesZeros) {
  RblDischargePolicy policy;
  BatteryViews views = {MakeView(0, 0.0, 0.03), MakeView(1, 0.0, 0.09)};
  auto d = policy.Allocate(views, Watts(5.0));
  EXPECT_DOUBLE_EQ(Sum(d), 0.0);
}

TEST(RblDischargeTest, MinimisesInstantaneousLossAmongSplits) {
  RblDischargePolicy policy(RblPolicyConfig{.delta_horizon = Seconds(0.0)});
  BatteryViews views = {MakeView(0, 0.9, 0.05), MakeView(1, 0.9, 0.12)};
  auto d = policy.Allocate(views, Watts(6.0));
  double policy_loss = InstantaneousLoss(views, d, Watts(6.0)).value();
  for (double s = 0.0; s <= 1.0; s += 0.01) {
    double l = InstantaneousLoss(views, {s, 1.0 - s}, Watts(6.0)).value();
    EXPECT_LE(policy_loss, l + 1e-9) << "beaten at s=" << s;
  }
}

TEST(RblDischargeTest, DeltaCorrectionShiftsLoadToStableBattery) {
  // Battery 0's DCIR climbs steeply as it drains; with the delta term on,
  // it carries less than the pure instantaneous optimum would give it.
  BatteryViews views = {MakeView(0, 0.3, 0.05), MakeView(1, 0.3, 0.05)};
  views[0].dcir_slope = Ohms(-2.0);  // Steep growth toward empty.
  views[1].dcir_slope = Ohms(-0.01);
  RblDischargePolicy instant(RblPolicyConfig{.delta_horizon = Seconds(0.0)});
  RblDischargePolicy horizon(RblPolicyConfig{.delta_horizon = Seconds(3600.0)});
  auto d_instant = instant.Allocate(views, Watts(4.0));
  auto d_horizon = horizon.Allocate(views, Watts(4.0));
  EXPECT_LT(d_horizon[0], d_instant[0]);
}

TEST(RblDischargeTest, ZeroLoadStillYieldsProportions) {
  RblDischargePolicy policy;
  BatteryViews views = {MakeView(0, 1.0, 0.03), MakeView(1, 1.0, 0.09)};
  auto d = policy.Allocate(views, Watts(0.0));
  EXPECT_NEAR(Sum(d), 1.0, 1e-9);
}

// ---------- RBL-Charge ----------

TEST(RblChargeTest, SharesSumToOneAndRespectAcceptance) {
  RblChargePolicy policy;
  BatteryViews views = {MakeView(0, 0.2, 0.03), MakeView(1, 0.2, 0.09)};
  views[0].max_charge = Amps(12.0);  // Fast-charge battery.
  views[1].max_charge = Amps(2.8);
  auto c = policy.Allocate(views, Watts(40.0));
  EXPECT_NEAR(Sum(c), 1.0, 1e-9);
  EXPECT_GT(c[0], c[1]);
}

TEST(RblChargeTest, FullBatteryExcluded) {
  RblChargePolicy policy;
  BatteryViews views = {MakeView(0, 1.0, 0.03), MakeView(1, 0.3, 0.09)};
  auto c = policy.Allocate(views, Watts(20.0));
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_NEAR(c[1], 1.0, 1e-9);
}

// ---------- CCB ----------

TEST(CcbDischargeTest, BalancedWearSplitsEvenly) {
  CcbDischargePolicy policy;
  BatteryViews views = {MakeView(0, 0.8, 0.05, 0.3), MakeView(1, 0.8, 0.05, 0.3)};
  auto d = policy.Allocate(views, Watts(5.0));
  EXPECT_NEAR(d[0], 0.5, 1e-9);
  EXPECT_NEAR(d[1], 0.5, 1e-9);
}

TEST(CcbDischargeTest, LessWornBatteryCarriesMore) {
  CcbDischargePolicy policy;
  BatteryViews views = {MakeView(0, 0.8, 0.05, 0.5), MakeView(1, 0.8, 0.05, 0.1)};
  auto d = policy.Allocate(views, Watts(5.0));
  EXPECT_GT(d[1], d[0]);
}

TEST(CcbChargeTest, LessWornBatteryChargesMore) {
  CcbChargePolicy policy;
  BatteryViews views = {MakeView(0, 0.5, 0.05, 0.6), MakeView(1, 0.5, 0.05, 0.2)};
  auto c = policy.Allocate(views, Watts(10.0));
  EXPECT_GT(c[1], c[0]);
  EXPECT_NEAR(Sum(c), 1.0, 1e-9);
}

TEST(CcbChargeTest, FullBatteryIneligible) {
  CcbChargePolicy policy;
  BatteryViews views = {MakeView(0, 1.0, 0.05, 0.0), MakeView(1, 0.5, 0.05, 0.9)};
  auto c = policy.Allocate(views, Watts(10.0));
  EXPECT_DOUBLE_EQ(c[0], 0.0);
  EXPECT_NEAR(c[1], 1.0, 1e-9);
}

TEST(CcbConvergenceTest, RepeatedAllocationBalancesWear) {
  // Simulate wear dynamics: each round adds wear proportional to the share.
  CcbDischargePolicy policy;
  BatteryViews views = {MakeView(0, 0.8, 0.05, 0.40), MakeView(1, 0.8, 0.05, 0.10)};
  for (int round = 0; round < 300; ++round) {
    auto d = policy.Allocate(views, Watts(5.0));
    views[0].wear_ratio += 0.002 * d[0];
    views[1].wear_ratio += 0.002 * d[1];
  }
  EXPECT_LT(ComputeCcb(views), 1.4);  // Started at 4.0.
}

// ---------- Blending ----------

TEST(BlendTest, WeightOneIsPureA) {
  RblDischargePolicy rbl(RblPolicyConfig{.delta_horizon = Seconds(0.0)});
  CcbDischargePolicy ccb;
  BlendedDischargePolicy blend(&rbl, &ccb, 1.0);
  BatteryViews views = {MakeView(0, 1.0, 0.03, 0.5), MakeView(1, 1.0, 0.09, 0.0)};
  auto d = blend.Allocate(views, Watts(5.0));
  auto d_rbl = rbl.Allocate(views, Watts(5.0));
  EXPECT_NEAR(d[0], d_rbl[0], 1e-12);
}

TEST(BlendTest, WeightZeroIsPureB) {
  RblDischargePolicy rbl;
  CcbDischargePolicy ccb;
  BlendedDischargePolicy blend(&rbl, &ccb, 0.0);
  BatteryViews views = {MakeView(0, 1.0, 0.03, 0.5), MakeView(1, 1.0, 0.09, 0.0)};
  auto d = blend.Allocate(views, Watts(5.0));
  auto d_ccb = ccb.Allocate(views, Watts(5.0));
  EXPECT_NEAR(d[0], d_ccb[0], 1e-12);
}

TEST(BlendTest, MidWeightInterpolates) {
  RblDischargePolicy rbl(RblPolicyConfig{.delta_horizon = Seconds(0.0)});
  CcbDischargePolicy ccb;
  BlendedDischargePolicy blend(&rbl, &ccb, 0.5);
  BatteryViews views = {MakeView(0, 1.0, 0.03, 0.5), MakeView(1, 1.0, 0.09, 0.0)};
  auto d = blend.Allocate(views, Watts(5.0));
  auto a = rbl.Allocate(views, Watts(5.0));
  auto b = ccb.Allocate(views, Watts(5.0));
  EXPECT_GT(d[0], std::min(a[0], b[0]) - 1e-12);
  EXPECT_LT(d[0], std::max(a[0], b[0]) + 1e-12);
  EXPECT_NEAR(Sum(d), 1.0, 1e-9);
}

TEST(BlendSharesTest, Renormalises) {
  std::vector<double> out;
  BlendShares({0.8, 0.2}, {0.2, 0.8}, 0.5, &out);
  EXPECT_NEAR(out[0], 0.5, 1e-12);
  EXPECT_NEAR(out[1], 0.5, 1e-12);
}

// ---------- Reserve (workload-aware) ----------

TEST(ReserveTest, NoHintDefersToFallback) {
  RblDischargePolicy rbl;
  ReserveDischargePolicy reserve(&rbl);
  BatteryViews views = {MakeView(0, 1.0, 0.03), MakeView(1, 1.0, 0.30)};
  auto d = reserve.Allocate(views, Watts(2.0));
  auto d_rbl = rbl.Allocate(views, Watts(2.0));
  EXPECT_NEAR(d[0], d_rbl[0], 1e-12);
}

TEST(ReserveTest, ReservesTheEfficientCapableBattery) {
  RblDischargePolicy rbl;
  ReserveDischargePolicy reserve(&rbl);
  // Battery 0 is efficient (low R); battery 1 is lossy. An upcoming 5 W
  // workload should reserve battery 0.
  BatteryViews views = {MakeView(0, 0.4, 0.03), MakeView(1, 0.9, 0.30)};
  reserve.SetHint(WorkloadHint{Hours(2.0), Watts(5.0), Hours(1.0)});
  EXPECT_EQ(reserve.ReservedIndex(views, Watts(1.0)), 0);
  auto d = reserve.Allocate(views, Watts(1.0));
  // Load shifts to the lossy battery to preserve the efficient one.
  EXPECT_LT(d[0], 0.1);
  EXPECT_GT(d[1], 0.9);
}

TEST(ReserveTest, NoCapableBatteryMeansNoReservation) {
  RblDischargePolicy rbl;
  ReserveDischargePolicy reserve(&rbl);
  BatteryViews views = {MakeView(0, 0.5, 0.03), MakeView(1, 0.5, 0.30)};
  reserve.SetHint(WorkloadHint{Hours(1.0), Watts(500.0), Hours(1.0)});
  EXPECT_EQ(reserve.ReservedIndex(views, Watts(1.0)), -1);
}

TEST(ReserveTest, AmpleEnergyMeansNoDistortion) {
  RblDischargePolicy rbl;
  ReserveDischargePolicy reserve(&rbl);
  // Battery 0 holds far more energy than the hinted workload needs.
  BatteryViews views = {MakeView(0, 1.0, 0.03, 0.0, 20000.0), MakeView(1, 1.0, 0.30)};
  reserve.SetHint(WorkloadHint{Hours(2.0), Watts(1.0), Minutes(10.0)});
  auto d = reserve.Allocate(views, Watts(1.0));
  auto d_rbl = rbl.Allocate(views, Watts(1.0));
  EXPECT_NEAR(d[0], d_rbl[0], 1e-9);
}

TEST(ReserveTest, FallsBackWhenOthersCannotCarry) {
  RblDischargePolicy rbl;
  ReserveDischargePolicy reserve(&rbl);
  BatteryViews views = {MakeView(0, 0.4, 0.03), MakeView(1, 0.0, 0.30)};  // Other is empty.
  reserve.SetHint(WorkloadHint{Hours(1.0), Watts(5.0), Hours(1.0)});
  auto d = reserve.Allocate(views, Watts(1.0));
  EXPECT_NEAR(d[0], 1.0, 1e-9);  // Must still serve the load.
}

// ---------- Policy-owned share buffers ----------

// Allocate(A), Allocate(B), Allocate(A): the third call must reproduce the
// first bit for bit, whatever the second left in the policy's buffers. B has
// a different battery count, so every buffer is resized in between.
template <typename Policy>
void ExpectAbaReproduces(Policy& policy, Power power) {
  const BatteryViews a = {MakeView(0, 0.4, 0.03, 0.10), MakeView(1, 0.9, 0.30, 0.30),
                          MakeView(2, 0.7, 0.08, 0.20)};
  const BatteryViews b = {MakeView(0, 0.2, 0.20, 0.50), MakeView(1, 0.95, 0.04)};
  const std::vector<double> first = policy.Allocate(a, power);
  const std::vector<double> other = policy.Allocate(b, power);
  const std::vector<double> again = policy.Allocate(a, power);
  EXPECT_EQ(again, first) << policy.name();
  EXPECT_EQ(other.size(), b.size()) << policy.name();
}

TEST(PolicyBufferTest, EveryPolicyReproducesItsSplitAfterOtherViews) {
  RblDischargePolicy rbl_discharge;
  CcbDischargePolicy ccb_discharge;
  RblChargePolicy rbl_charge;
  CcbChargePolicy ccb_charge;
  ExpectAbaReproduces(rbl_discharge, Watts(5.0));
  ExpectAbaReproduces(ccb_discharge, Watts(5.0));
  ExpectAbaReproduces(rbl_charge, Watts(10.0));
  ExpectAbaReproduces(ccb_charge, Watts(10.0));
  for (double weight : {0.0, 0.5, 1.0}) {
    BlendedDischargePolicy blended_discharge(&rbl_discharge, &ccb_discharge, weight);
    BlendedChargePolicy blended_charge(&rbl_charge, &ccb_charge, weight);
    ExpectAbaReproduces(blended_discharge, Watts(5.0));
    ExpectAbaReproduces(blended_charge, Watts(10.0));
  }
  BlendedDischargePolicy blended(&rbl_discharge, &ccb_discharge, 0.5);
  ReserveDischargePolicy reserve(&blended, ReservePolicyConfig{.bias = 0.6});
  ExpectAbaReproduces(reserve, Watts(1.0));
  // Hinted: on A the efficient battery 0 is reserved and the masked path runs.
  reserve.SetHint(WorkloadHint{Hours(2.0), Watts(5.0), Hours(1.0)});
  ExpectAbaReproduces(reserve, Watts(1.0));
}

// The masked path runs the fallback twice, so the unmasked split must be
// copied out of the fallback's buffer before the second run overwrites it.
// With bias < 1 the result depends on both runs; it must equal the blend of
// two independently built policy stacks, one run on each view set.
TEST(PolicyBufferTest, ReserveMaskedPathMatchesIndependentStacks) {
  const BatteryViews views = {MakeView(0, 0.4, 0.03, 0.10), MakeView(1, 0.9, 0.30, 0.30),
                              MakeView(2, 0.7, 0.08, 0.20)};
  const Power load = Watts(1.0);
  const ReservePolicyConfig config{.bias = 0.6};

  RblDischargePolicy rbl;
  CcbDischargePolicy ccb;
  BlendedDischargePolicy blended(&rbl, &ccb, 0.5);
  ReserveDischargePolicy reserve(&blended, config);
  reserve.SetHint(WorkloadHint{Hours(2.0), Watts(5.0), Hours(1.0)});
  const int reserved = reserve.ReservedIndex(views, load);
  ASSERT_EQ(reserved, 0);
  const std::vector<double> got = reserve.Allocate(views, load);

  RblDischargePolicy rbl_masked;
  CcbDischargePolicy ccb_masked;
  BlendedDischargePolicy masked_stack(&rbl_masked, &ccb_masked, 0.5);
  RblDischargePolicy rbl_base;
  CcbDischargePolicy ccb_base;
  BlendedDischargePolicy base_stack(&rbl_base, &ccb_base, 0.5);
  BatteryViews masked = views;
  masked[reserved].is_empty = true;
  masked[reserved].max_discharge = Amps(0.0);
  std::vector<double> want;
  BlendShares(masked_stack.Allocate(masked, load), base_stack.Allocate(views, load), config.bias,
              &want);

  EXPECT_EQ(got, want);
  // The masked run really differs from the unmasked one, so a base that the
  // second run overwrote would show.
  EXPECT_NE(masked_stack.Allocate(masked, load), base_stack.Allocate(views, load));
}

}  // namespace
}  // namespace sdb
