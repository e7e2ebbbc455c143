#include "src/core/allocator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/util/check.h"

namespace sdb {

namespace {

// y at which battery i's marginal cost reaches lambda (inverse of
// mc(y) = 2 R y + 3 H g y^2).
double CurrentAtMultiplier(double r, double hg3, double lambda) {
  if (lambda <= 0.0) {
    return 0.0;
  }
  if (hg3 <= 0.0) {
    return lambda / (2.0 * r);
  }
  // Positive root of hg3 * y^2 + 2 r y - lambda = 0.
  double disc = 4.0 * r * r + 4.0 * hg3 * lambda;
  return (-2.0 * r + std::sqrt(disc)) / (2.0 * hg3);
}

// Non-negative doubles (+inf included) sort like their bit patterns, so a
// search over adjacent doubles is a search over integers.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }
double FromBits(uint64_t bits) { return std::bit_cast<double>(bits); }

// Newton steps before the ulp search takes over. From lambda = 0 the
// iterates climb monotonically (total_at is concave), one kink per
// saturating battery and then quadratically; realistic problems stop
// after about three. A step below kNewtonSettled * lambda (~4000 ulps) ends
// Newton early: when -2r + sqrt(disc) cancels, total_at is a staircase
// tens of ulps wide and Newton would crawl across it.
constexpr int kMaxNewtonSteps = 24;
constexpr double kNewtonSettled = 0x1p-40;

// The reference bisection's iteration count. Its answer is the
// specification this solver reproduces bit for bit.
constexpr int kBisectionSteps = 120;

}  // namespace

void SolveMarginalCostAllocation(const MarginalCostProblem& problem, std::vector<Current>* out) {
  // Numeric-kernel entry: read the typed problem's raw SI magnitudes in
  // place, search for the multiplier on doubles, and re-wrap the solution.
  const size_t n = problem.resistance.size();
  SDB_CHECK(problem.dcir_growth.size() == n);
  SDB_CHECK(problem.current_cap.size() == n);
  std::vector<Current>& result = *out;
  result.assign(n, Amps(0.0));
  const double total = problem.total_current.value();
  const double horizon = problem.horizon.value();
  if (total <= 0.0 || n == 0) {
    return;
  }

  auto resistance = [&](size_t i) { return problem.resistance[i].value(); };
  auto cap = [&](size_t i) { return problem.current_cap[i].value(); };
  auto hg3 = [&](size_t i) { return 3.0 * horizon * problem.dcir_growth[i].value(); };

  double cap_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    SDB_CHECK(cap(i) >= 0.0);
    if (cap(i) > 0.0) {
      SDB_CHECK(resistance(i) > 0.0);
      SDB_CHECK(problem.dcir_growth[i].value() >= 0.0);
    }
    cap_sum += cap(i);
  }
  if (cap_sum <= total) {
    result = problem.current_cap;  // Everything is saturated.
    return;
  }

  // Sum of the capped currents at lambda; with `slope` set, also its
  // derivative d(sum)/d(lambda). The sum's expression is the reference's,
  // operation for operation: it is the only function of lambda the search
  // below compares against `total`.
  auto total_at = [&](double lambda, double* slope) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (cap(i) <= 0.0) {
        continue;
      }
      double y = CurrentAtMultiplier(resistance(i), hg3(i), lambda);
      if (slope != nullptr && y < cap(i)) {
        *slope += 1.0 / (2.0 * resistance(i) + 2.0 * std::max(hg3(i), 0.0) * y);
      }
      sum += std::min(y, cap(i));
    }
    return sum;
  };
  auto below = [&](double lambda) { return total_at(lambda, nullptr) < total; };

  // Bracket lambda: above lambda_hi every eligible battery is saturated.
  double lambda_hi = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (cap(i) <= 0.0) {
      continue;
    }
    double mc = 2.0 * resistance(i) * cap(i) + hg3(i) * cap(i) * cap(i);
    lambda_hi = std::max(lambda_hi, mc);
  }
  lambda_hi *= 1.0 + 1e-9;

  // Every step of total_at is monotone non-decreasing in lambda under IEEE
  // round-to-nearest, so the reference bisection's test below(mid) is
  // exactly mid < T, where T is the smallest double with !below(T). Find T
  // exactly; below(0) holds (total > 0) and below(+inf) fails (the sum is
  // cap_sum), so T exists and lies in (lo, hi] throughout.
  uint64_t lo = Bits(0.0);
  uint64_t hi = Bits(std::numeric_limits<double>::infinity());
  // Newton from 0: the tangent of a concave increasing function lies above
  // it, so the iterates approach T from below.
  double lambda = 0.0;
  bool last_below = true;
  for (int step = 0; step < kMaxNewtonSteps; ++step) {
    double slope = 0.0;
    double sum = total_at(lambda, &slope);
    last_below = sum < total;
    if (!last_below) {
      hi = Bits(lambda);
      break;
    }
    lo = Bits(lambda);
    double next = lambda + (total - sum) / slope;
    if (!(next > lambda)) {
      break;  // Converged to rounding (or no slope left).
    }
    const bool settled = next - lambda <= lambda * kNewtonSettled;
    lambda = next;
    if (settled) {
      // A step this small is inside total_at's rounding noise, where Newton
      // only crawls an ulp or so per step: hand its prediction to the ulp
      // search.
      last_below = below(lambda);
      (last_below ? lo : hi) = Bits(lambda);
      break;
    }
  }
  // Gallop outward in ulps from the last Newton point until T is bracketed.
  for (uint64_t stride = 1; hi - lo > stride; stride *= 2) {
    if (last_below) {
      if (!below(FromBits(lo + stride))) {
        hi = lo + stride;
        break;
      }
      lo += stride;
    } else {
      if (below(FromBits(hi - stride))) {
        lo = hi - stride;
        break;
      }
      hi -= stride;
    }
  }
  // Bisect over adjacent doubles.
  while (hi - lo > 1) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (below(FromBits(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double threshold = FromBits(hi);

  // The reference: lo = 0, hi = lambda_hi, then kBisectionSteps times
  // { mid = 0.5 * (lo + hi); below(mid) ? lo = mid : hi = mid; } and
  // lambda = 0.5 * (lo + hi). While lo < T <= hi, each step halves the
  // bracket up to rounding, and once lo and hi are adjacent doubles no
  // step moves them. When T <= lambda_hi < T * 2^32 that happens well
  // within kBisectionSteps, at lo = prev(T), hi = T. Otherwise (a tiny
  // total against large caps, or T above the bracket) replay the loop with
  // the exact comparison, which needs no evaluation of total_at. The replay
  // alone would be exact too, but its 50-plus dependent steps per solve cost
  // about 30% of charge-replan's throughput, so the common case skips them.
  if (threshold <= lambda_hi && lambda_hi < threshold * 0x1p32) {
    lambda = 0.5 * (std::nextafter(threshold, 0.0) + threshold);
  } else {
    double bracket_lo = 0.0;
    double bracket_hi = lambda_hi;
    for (int iter = 0; iter < kBisectionSteps; ++iter) {
      double mid = 0.5 * (bracket_lo + bracket_hi);
      if (mid < threshold) {
        bracket_lo = mid;
      } else {
        bracket_hi = mid;
      }
    }
    lambda = 0.5 * (bracket_lo + bracket_hi);
  }

  for (size_t i = 0; i < n; ++i) {
    if (cap(i) <= 0.0) {
      continue;
    }
    double y = CurrentAtMultiplier(resistance(i), hg3(i), lambda);
    result[i] = Amps(std::min(y, cap(i)));
  }
}

std::vector<Current> SolveMarginalCostAllocation(const MarginalCostProblem& problem) {
  std::vector<Current> result;
  SolveMarginalCostAllocation(problem, &result);
  return result;
}

std::vector<double> NormalizeShares(std::vector<double> weights,
                                    const std::vector<bool>* eligible) {
  double sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    SDB_CHECK(weights[i] >= 0.0);
    if (eligible != nullptr && !(*eligible)[i]) {
      weights[i] = 0.0;
    }
    sum += weights[i];
  }
  if (sum > 0.0) {
    for (auto& w : weights) {
      w /= sum;
    }
    return weights;
  }
  // Fall back to uniform over eligible entries.
  size_t count = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (eligible == nullptr || (*eligible)[i]) {
      ++count;
    }
  }
  if (count == 0) {
    return weights;  // All zero; caller handles the degenerate case.
  }
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = (eligible == nullptr || (*eligible)[i]) ? 1.0 / static_cast<double>(count) : 0.0;
  }
  return weights;
}

void ApplyDegradedExclusion(const std::vector<bool>& excluded, std::vector<double>* shares,
                            std::vector<bool>* eligible) {
  SDB_CHECK(shares->size() == excluded.size());
  eligible->resize(excluded.size());
  for (size_t i = 0; i < excluded.size(); ++i) {
    (*eligible)[i] = !excluded[i];
    // Tolerate policy rounding: tiny negative shares are treated as zero.
    (*shares)[i] = std::max(0.0, (*shares)[i]);
  }
  *shares = NormalizeShares(std::move(*shares), eligible);
}

void ApplyReintegrationRamp(const std::vector<double>& ramp, std::vector<double>* shares,
                            std::vector<bool>* eligible) {
  SDB_CHECK(shares->size() == ramp.size());
  bool all_full = true;
  for (double r : ramp) {
    SDB_CHECK(r >= 0.0 && r <= 1.0);
    all_full = all_full && r == 1.0;
  }
  if (all_full) {
    return;  // Bit-identical pass-through when nothing is ramping.
  }
  eligible->resize(ramp.size());
  for (size_t i = 0; i < ramp.size(); ++i) {
    (*eligible)[i] = ramp[i] > 0.0;
    (*shares)[i] = std::max(0.0, (*shares)[i]) * ramp[i];
  }
  *shares = NormalizeShares(std::move(*shares), eligible);
}

}  // namespace sdb
