// Piecewise-linear curves over double, the workhorse for battery
// characteristic tables (OCV vs SoC, DCIR vs SoC, fade vs cycle count, ...).
#ifndef SRC_UTIL_CURVE_H_
#define SRC_UTIL_CURVE_H_

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/status.h"

namespace sdb {

// A piecewise-linear function y = f(x) defined by sample points with
// strictly increasing x. Evaluation outside the sampled range clamps to the
// end values (batteries saturate; they do not extrapolate).
class PiecewiseLinearCurve {
 public:
  PiecewiseLinearCurve() = default;

  // Builds a curve from (x, y) samples. Returns an error unless there are at
  // least two points and x is strictly increasing.
  static StatusOr<PiecewiseLinearCurve> Create(std::vector<std::pair<double, double>> points);

  // Convenience for compile-time tables; aborts on invalid input.
  static PiecewiseLinearCurve FromTable(
      std::initializer_list<std::pair<double, double>> points);

  // Linear interpolation with end-clamping.
  double Evaluate(double x) const;

  // Evaluate with a caller-held segment hint. Bit-identical to Evaluate():
  // the containing segment (points_[i].x <= x < points_[i+1].x) is unique,
  // and the interpolation expression is the same — only the segment *search*
  // is skipped when the hint still holds, which is the common case for SoC
  // moving a fraction of a segment per step. Any stale hint value is safe
  // (it is range-clamped and falls back to the binary search on a miss).
  double EvaluateHinted(double x, uint32_t* hint) const {
    SDB_DCHECK(points_.size() >= 2);
    if (x <= points_.front().first) {
      return points_.front().second;
    }
    if (x >= points_.back().first) {
      return points_.back().second;
    }
    const size_t i = HintedSegmentIndex(x, hint);
    const auto& [x0, y0] = points_[i];
    const auto& [x1, y1] = points_[i + 1];
    double t = (x - x0) / (x1 - x0);
    return y0 + t * (y1 - y0);
  }

  // Slope dy/dx of the segment containing x (end segments for out-of-range x).
  double Derivative(double x) const;

  // Derivative with a caller-held segment hint, bit-identical to
  // Derivative() for every x, NaN and infinities included. Sharing one hint
  // with EvaluateHinted at the same x costs one segment search for both.
  double DerivativeHinted(double x, uint32_t* hint) const {
    SDB_DCHECK(points_.size() >= 2);
    const size_t last_segment = points_.size() - 2;
    // SegmentIndex clamps to the end segments outside the range.
    const size_t i = x <= points_.front().first  ? 0
                     : x >= points_.back().first ? last_segment
                                                 : HintedSegmentIndex(x, hint);
    const auto& [x0, y0] = points_[i];
    const auto& [x1, y1] = points_[i + 1];
    return (y1 - y0) / (x1 - x0);
  }

  // Inverse lookup: smallest x with f(x) == y. Requires the curve to be
  // monotone (either direction); returns an error otherwise or when y is
  // outside the curve's range.
  StatusOr<double> SolveForX(double y) const;

  bool IsMonotoneIncreasing() const;
  bool IsMonotoneDecreasing() const;

  double min_x() const;
  double max_x() const;
  double min_y() const;
  double max_y() const;

  const std::vector<std::pair<double, double>>& points() const { return points_; }

  // Returns a curve whose y values are scaled by `factor`.
  PiecewiseLinearCurve ScaledY(double factor) const;
  // Returns a curve shifted vertically by `offset`.
  PiecewiseLinearCurve ShiftedY(double offset) const;

 private:
  explicit PiecewiseLinearCurve(std::vector<std::pair<double, double>> points)
      : points_(std::move(points)) {}

  // Index of the segment [i, i+1] containing x (clamped to valid segments).
  size_t SegmentIndex(double x) const;

  // SegmentIndex(x), trying `*hint` first and storing the answer back. The
  // segment with points_[i].x <= x < points_[i+1].x is unique, so a hint
  // that passes the check is SegmentIndex's answer; any other hint value,
  // however stale, falls back to the search.
  size_t HintedSegmentIndex(double x, uint32_t* hint) const {
    size_t i = *hint;
    if (i > points_.size() - 2 || !(points_[i].first <= x && x < points_[i + 1].first)) {
      i = SegmentIndex(x);
      *hint = static_cast<uint32_t>(i);
    }
    return i;
  }

  std::vector<std::pair<double, double>> points_;
};

}  // namespace sdb

#endif  // SRC_UTIL_CURVE_H_
