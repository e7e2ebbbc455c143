#include "src/core/metrics.h"

#include <gtest/gtest.h>

#include "tests/core/test_views.h"

namespace sdb {
namespace {

using testing_views::MakeView;

TEST(CcbTest, EmptyViewsGiveOne) { EXPECT_DOUBLE_EQ(ComputeCcb({}), 1.0); }

TEST(CcbTest, BalancedWearGivesOne) {
  BatteryViews views = {MakeView(0, 0.5, 0.05, 0.3), MakeView(1, 0.5, 0.05, 0.3)};
  EXPECT_DOUBLE_EQ(ComputeCcb(views), 1.0);
}

TEST(CcbTest, ImbalanceIsRatio) {
  BatteryViews views = {MakeView(0, 0.5, 0.05, 0.6), MakeView(1, 0.5, 0.05, 0.2)};
  EXPECT_NEAR(ComputeCcb(views), 3.0, 1e-9);
}

TEST(CcbTest, UnwornBatteriesDoNotDivideByZero) {
  BatteryViews views = {MakeView(0, 0.5, 0.05, 0.0), MakeView(1, 0.5, 0.05, 0.0)};
  EXPECT_DOUBLE_EQ(ComputeCcb(views), 1.0);
}

TEST(RblTest, ZeroLoadReturnsTotalEnergy) {
  BatteryViews views = {MakeView(0, 0.5, 0.05), MakeView(1, 1.0, 0.05)};
  double total = (RemainingEnergy(views[0]) + RemainingEnergy(views[1])).value();
  EXPECT_NEAR(EstimateRbl(views, Watts(0.0)).value(), total, 1e-9);
}

TEST(RblTest, LoadDiscountsEnergy) {
  BatteryViews views = {MakeView(0, 1.0, 0.08), MakeView(1, 1.0, 0.08)};
  double total = (RemainingEnergy(views[0]) + RemainingEnergy(views[1])).value();
  Energy rbl = EstimateRbl(views, Watts(8.0));
  EXPECT_LT(rbl.value(), total);
  EXPECT_GT(rbl.value(), 0.9 * total);
}

TEST(RblTest, HigherLoadMeansLowerRbl) {
  BatteryViews views = {MakeView(0, 1.0, 0.08), MakeView(1, 1.0, 0.08)};
  EXPECT_GT(EstimateRbl(views, Watts(2.0)).value(), EstimateRbl(views, Watts(15.0)).value());
}

TEST(RblTest, ResistiveBatterySystemHasLowerRbl) {
  BatteryViews efficient = {MakeView(0, 1.0, 0.02), MakeView(1, 1.0, 0.02)};
  BatteryViews lossy = {MakeView(0, 1.0, 0.5), MakeView(1, 1.0, 0.5)};
  EXPECT_GT(EstimateRbl(efficient, Watts(5.0)).value(),
            EstimateRbl(lossy, Watts(5.0)).value());
}

TEST(RblTest, AllEmptyGivesZero) {
  BatteryViews views = {MakeView(0, 0.0, 0.05), MakeView(1, 0.0, 0.05)};
  EXPECT_NEAR(EstimateRbl(views, Watts(5.0)).value(), 0.0, 1e-9);
}

TEST(InstantaneousLossTest, ZeroSharesZeroLoss) {
  BatteryViews views = {MakeView(0, 0.5, 0.05), MakeView(1, 0.5, 0.05)};
  EXPECT_DOUBLE_EQ(InstantaneousLoss(views, {0.0, 0.0}, Watts(5.0)).value(), 0.0);
}

TEST(InstantaneousLossTest, SingleBatteryCarriesQuadraticLoss) {
  BatteryViews views = {MakeView(0, 1.0, 0.1), MakeView(1, 1.0, 0.1)};
  double all_on_one = InstantaneousLoss(views, {1.0, 0.0}, Watts(8.0)).value();
  double split = InstantaneousLoss(views, {0.5, 0.5}, Watts(8.0)).value();
  EXPECT_NEAR(all_on_one / split, 2.0, 1e-9);  // I^2R: (1)^2 vs 2*(1/2)^2.
}

}  // namespace
}  // namespace sdb
