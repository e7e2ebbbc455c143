#include "src/util/curve.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace sdb {
namespace {

PiecewiseLinearCurve Ramp() {
  return PiecewiseLinearCurve::FromTable({{0.0, 0.0}, {1.0, 10.0}});
}

TEST(CurveTest, CreateRejectsTooFewPoints) {
  auto curve = PiecewiseLinearCurve::Create({{0.0, 1.0}});
  EXPECT_FALSE(curve.ok());
  EXPECT_EQ(curve.status().code(), StatusCode::kInvalidArgument);
}

TEST(CurveTest, CreateRejectsNonIncreasingX) {
  auto curve = PiecewiseLinearCurve::Create({{0.0, 1.0}, {0.0, 2.0}});
  EXPECT_FALSE(curve.ok());
  auto curve2 = PiecewiseLinearCurve::Create({{1.0, 1.0}, {0.5, 2.0}});
  EXPECT_FALSE(curve2.ok());
}

TEST(CurveTest, CreateRejectsNonFinite) {
  auto curve = PiecewiseLinearCurve::Create({{0.0, 1.0}, {1.0, 1.0 / 0.0}});
  EXPECT_FALSE(curve.ok());
}

TEST(CurveTest, InterpolatesLinearly) {
  auto c = Ramp();
  EXPECT_DOUBLE_EQ(c.Evaluate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.Evaluate(0.25), 2.5);
  EXPECT_DOUBLE_EQ(c.Evaluate(1.0), 10.0);
}

TEST(CurveTest, ClampsOutsideRange) {
  auto c = Ramp();
  EXPECT_DOUBLE_EQ(c.Evaluate(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.Evaluate(5.0), 10.0);
}

TEST(CurveTest, MultiSegmentInterpolation) {
  auto c = PiecewiseLinearCurve::FromTable({{0.0, 0.0}, {1.0, 1.0}, {2.0, 4.0}, {4.0, 4.0}});
  EXPECT_DOUBLE_EQ(c.Evaluate(1.5), 2.5);
  EXPECT_DOUBLE_EQ(c.Evaluate(3.0), 4.0);
}

TEST(CurveTest, Derivative) {
  auto c = PiecewiseLinearCurve::FromTable({{0.0, 0.0}, {1.0, 1.0}, {2.0, 4.0}});
  EXPECT_DOUBLE_EQ(c.Derivative(0.5), 1.0);
  EXPECT_DOUBLE_EQ(c.Derivative(1.5), 3.0);
  // End segments are used outside the range.
  EXPECT_DOUBLE_EQ(c.Derivative(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(c.Derivative(9.0), 3.0);
}

TEST(CurveTest, Monotonicity) {
  EXPECT_TRUE(Ramp().IsMonotoneIncreasing());
  EXPECT_FALSE(Ramp().IsMonotoneDecreasing());
  auto down = PiecewiseLinearCurve::FromTable({{0.0, 5.0}, {1.0, 1.0}});
  EXPECT_TRUE(down.IsMonotoneDecreasing());
  auto humped = PiecewiseLinearCurve::FromTable({{0.0, 0.0}, {1.0, 2.0}, {2.0, 1.0}});
  EXPECT_FALSE(humped.IsMonotoneIncreasing());
  EXPECT_FALSE(humped.IsMonotoneDecreasing());
}

TEST(CurveTest, SolveForXOnIncreasingCurve) {
  auto c = Ramp();
  auto x = c.SolveForX(2.5);
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(*x, 0.25);
}

TEST(CurveTest, SolveForXOnDecreasingCurve) {
  auto c = PiecewiseLinearCurve::FromTable({{0.0, 10.0}, {2.0, 0.0}});
  auto x = c.SolveForX(5.0);
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(*x, 1.0);
}

TEST(CurveTest, SolveForXRejectsNonMonotone) {
  auto humped = PiecewiseLinearCurve::FromTable({{0.0, 0.0}, {1.0, 2.0}, {2.0, 1.0}});
  EXPECT_EQ(humped.SolveForX(1.5).status().code(), StatusCode::kFailedPrecondition);
}

TEST(CurveTest, SolveForXRejectsOutOfRange) {
  EXPECT_EQ(Ramp().SolveForX(11.0).status().code(), StatusCode::kOutOfRange);
}

TEST(CurveTest, MinMaxAccessors) {
  auto c = PiecewiseLinearCurve::FromTable({{0.0, 3.0}, {1.0, -1.0}, {2.0, 7.0}});
  EXPECT_DOUBLE_EQ(c.min_x(), 0.0);
  EXPECT_DOUBLE_EQ(c.max_x(), 2.0);
  EXPECT_DOUBLE_EQ(c.min_y(), -1.0);
  EXPECT_DOUBLE_EQ(c.max_y(), 7.0);
}

TEST(CurveTest, ScaledAndShifted) {
  auto c = Ramp().ScaledY(2.0);
  EXPECT_DOUBLE_EQ(c.Evaluate(0.5), 10.0);
  auto d = Ramp().ShiftedY(1.0);
  EXPECT_DOUBLE_EQ(d.Evaluate(0.0), 1.0);
}

// --- Hinted lookups ----------------------------------------------------------
// EvaluateHinted and DerivativeHinted must return Evaluate's and
// Derivative's doubles bit for bit from any starting hint, so the tests
// compare bit patterns: a NaN must match payload and all, and -0 is not 0.

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

std::vector<PiecewiseLinearCurve> HintTestCurves() {
  return {
      Ramp(),
      // Uneven segments, negative x, a steep end segment.
      PiecewiseLinearCurve::FromTable(
          {{-1.0, 2.0}, {0.0, 0.5}, {0.03, 0.6}, {0.5, 0.9}, {0.97, 1.0}, {1.0, 4.2}}),
      // Decreasing, then rising again (a DCIR-vs-SoC shape).
      PiecewiseLinearCurve::FromTable(
          {{0.0, 0.3}, {0.1, 0.15}, {0.2, 0.1}, {0.8, 0.08}, {1.0, 0.09}}),
      // Many knots at inexact x, like a sampled OCV table.
      [] {
        std::vector<std::pair<double, double>> points;
        for (int i = 0; i <= 20; ++i) {
          const double x = i / 20.0;
          points.emplace_back(x, 3.0 + x + 0.1 * std::sin(7.0 * x));
        }
        return *PiecewiseLinearCurve::Create(std::move(points));
      }(),
  };
}

// Every knot and one ulp either side of it, each segment's midpoint, points
// beyond both ends, both zeros, both infinities and NaN.
std::vector<double> HintProbes(const PiecewiseLinearCurve& c) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> xs = {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::lowest(), c.min_x() - 1.0,
                            c.max_x() + 1.0};
  const auto& points = c.points();
  for (size_t i = 0; i < points.size(); ++i) {
    const double knot = points[i].first;
    xs.push_back(knot);
    xs.push_back(std::nextafter(knot, -kInf));
    xs.push_back(std::nextafter(knot, kInf));
    if (i + 1 < points.size()) {
      xs.push_back(0.5 * (knot + points[i + 1].first));
    }
  }
  return xs;
}

// Valid, one-past-the-end, far out of range: every hint a caller could hold.
std::vector<uint32_t> HintStarts(const PiecewiseLinearCurve& c) {
  std::vector<uint32_t> hints;
  for (uint32_t h = 0; h <= c.points().size(); ++h) {
    hints.push_back(h);
  }
  hints.push_back(0x7fffffffu);
  hints.push_back(0xffffffffu);
  return hints;
}

TEST(CurveTest, HintedFormsMatchUnhintedBitForBitFromAnyHint) {
  for (const PiecewiseLinearCurve& c : HintTestCurves()) {
    for (double x : HintProbes(c)) {
      for (uint32_t start : HintStarts(c)) {
        uint32_t hint = start;
        EXPECT_EQ(Bits(c.EvaluateHinted(x, &hint)), Bits(c.Evaluate(x)))
            << "x=" << x << " hint=" << start;
        hint = start;
        EXPECT_EQ(Bits(c.DerivativeHinted(x, &hint)), Bits(c.Derivative(x)))
            << "x=" << x << " hint=" << start;
        // One hint shared by the value and the slope, as BuildViews does.
        hint = start;
        EXPECT_EQ(Bits(c.EvaluateHinted(x, &hint)), Bits(c.Evaluate(x)));
        EXPECT_EQ(Bits(c.DerivativeHinted(x, &hint)), Bits(c.Derivative(x)))
            << "shared hint, x=" << x << " hint=" << start;
      }
    }
  }
}

TEST(CurveTest, HintLandsOnTheContainingSegment) {
  // Inside the range a lookup leaves the hint on x's segment, so the next
  // lookup at a nearby x, the slope included, skips the search.
  for (const PiecewiseLinearCurve& c : HintTestCurves()) {
    const auto& points = c.points();
    for (double x : HintProbes(c)) {
      if (!(x > c.min_x() && x < c.max_x())) {
        continue;
      }
      for (uint32_t start : HintStarts(c)) {
        uint32_t hint = start;
        c.EvaluateHinted(x, &hint);
        ASSERT_LT(hint, points.size() - 1);
        EXPECT_TRUE(points[hint].first <= x && x < points[hint + 1].first) << "x=" << x;
        const uint32_t landed = hint;
        c.DerivativeHinted(x, &hint);
        EXPECT_EQ(hint, landed);
        hint = start;
        c.DerivativeHinted(x, &hint);
        EXPECT_EQ(hint, landed);
      }
    }
  }
}

TEST(CurveTest, HintCarriedThroughASeededWalkMatchesUnhinted) {
  // One hint per curve for the value and one for the slope, carried through
  // small steps, jumps, out-of-range values and NaN.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (const PiecewiseLinearCurve& c : HintTestCurves()) {
    Rng rng(31);
    const double span = c.max_x() - c.min_x();
    double x = c.min_x() + 0.5 * span;
    uint32_t value_hint = 0;
    uint32_t slope_hint = 0;
    for (int step = 0; step < 5000; ++step) {
      switch (rng.NextBounded(8)) {
        case 0:
          x = c.min_x() + rng.Uniform(-0.2, 1.2) * span;  // Jump.
          break;
        case 1:
          x = kNan;
          break;
        case 2:
          x = c.points()[rng.NextBounded(c.points().size())].first;  // A knot.
          break;
        default:
          if (std::isnan(x)) {
            x = c.min_x();
          }
          x += rng.Uniform(-0.02, 0.02) * span;  // Drift either way.
          break;
      }
      ASSERT_EQ(Bits(c.EvaluateHinted(x, &value_hint)), Bits(c.Evaluate(x))) << "x=" << x;
      ASSERT_EQ(Bits(c.DerivativeHinted(x, &slope_hint)), Bits(c.Derivative(x))) << "x=" << x;
    }
  }
}

}  // namespace
}  // namespace sdb
