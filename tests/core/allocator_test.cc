#include "src/core/allocator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace sdb {
namespace {

double Sum(const std::vector<Current>& v) {
  double total = 0.0;
  for (Current c : v) {
    total += c.value();
  }
  return total;
}

TEST(AllocatorTest, ZeroTargetGivesZeros) {
  MarginalCostProblem p;
  p.resistance = {Ohms(0.05), Ohms(0.05)};
  p.dcir_growth = {ResistancePerCharge(0.0), ResistancePerCharge(0.0)};
  p.current_cap = {Amps(5.0), Amps(5.0)};
  p.total_current = Amps(0.0);
  auto y = SolveMarginalCostAllocation(p);
  EXPECT_DOUBLE_EQ(Sum(y), 0.0);
}

TEST(AllocatorTest, EqualResistancesSplitEvenly) {
  MarginalCostProblem p;
  p.resistance = {Ohms(0.05), Ohms(0.05)};
  p.dcir_growth = {ResistancePerCharge(0.0), ResistancePerCharge(0.0)};
  p.current_cap = {Amps(10.0), Amps(10.0)};
  p.total_current = Amps(4.0);
  auto y = SolveMarginalCostAllocation(p);
  EXPECT_NEAR(y[0].value(), 2.0, 1e-6);
  EXPECT_NEAR(y[1].value(), 2.0, 1e-6);
}

TEST(AllocatorTest, ClassicInverseResistanceSplit) {
  // With no growth term, currents split as 1/R (loss-minimising).
  MarginalCostProblem p;
  p.resistance = {Ohms(0.03), Ohms(0.06)};
  p.dcir_growth = {ResistancePerCharge(0.0), ResistancePerCharge(0.0)};
  p.current_cap = {Amps(100.0), Amps(100.0)};
  p.total_current = Amps(3.0);
  auto y = SolveMarginalCostAllocation(p);
  EXPECT_NEAR(Sum(y), 3.0, 1e-6);
  EXPECT_NEAR(Ratio(y[0], y[1]), 2.0, 1e-3);
}

TEST(AllocatorTest, MatchesBruteForceLossMinimum) {
  // Grid-search the loss over all splits and check the allocator matches.
  MarginalCostProblem p;
  p.resistance = {Ohms(0.04), Ohms(0.09), Ohms(0.15)};
  p.dcir_growth = {ResistancePerCharge(0.0), ResistancePerCharge(0.0),
                   ResistancePerCharge(0.0)};
  p.current_cap = {Amps(100.0), Amps(100.0), Amps(100.0)};
  p.total_current = Amps(6.0);
  auto y = SolveMarginalCostAllocation(p);

  auto loss = [&](double a, double b) {
    double c = p.total_current.value() - a - b;
    if (c < 0.0) {
      return 1e18;
    }
    return p.resistance[0].value() * a * a + p.resistance[1].value() * b * b +
           p.resistance[2].value() * c * c;
  };
  double best = 1e18;
  double best_a = 0.0, best_b = 0.0;
  for (double a = 0.0; a <= 6.0; a += 0.01) {
    for (double b = 0.0; a + b <= 6.0; b += 0.01) {
      double l = loss(a, b);
      if (l < best) {
        best = l;
        best_a = a;
        best_b = b;
      }
    }
  }
  EXPECT_NEAR(y[0].value(), best_a, 0.05);
  EXPECT_NEAR(y[1].value(), best_b, 0.05);
  double allocator_loss = loss(y[0].value(), y[1].value());
  EXPECT_LE(allocator_loss, best * 1.001);
}

TEST(AllocatorTest, CapsAreRespected) {
  MarginalCostProblem p;
  p.resistance = {Ohms(0.01), Ohms(0.10)};
  p.dcir_growth = {ResistancePerCharge(0.0), ResistancePerCharge(0.0)};
  p.current_cap = {Amps(1.0), Amps(100.0)};
  p.total_current = Amps(5.0);
  auto y = SolveMarginalCostAllocation(p);
  EXPECT_LE(y[0].value(), 1.0 + 1e-9);
  EXPECT_NEAR(Sum(y), 5.0, 1e-6);
}

TEST(AllocatorTest, SaturatedCapsReturnCaps) {
  MarginalCostProblem p;
  p.resistance = {Ohms(0.05), Ohms(0.05)};
  p.dcir_growth = {ResistancePerCharge(0.0), ResistancePerCharge(0.0)};
  p.current_cap = {Amps(1.0), Amps(1.0)};
  p.total_current = Amps(5.0);
  auto y = SolveMarginalCostAllocation(p);
  EXPECT_DOUBLE_EQ(y[0].value(), 1.0);
  EXPECT_DOUBLE_EQ(y[1].value(), 1.0);
}

TEST(AllocatorTest, ZeroCapBatteryGetsNothing) {
  MarginalCostProblem p;
  p.resistance = {Ohms(0.05), Ohms(0.05)};
  p.dcir_growth = {ResistancePerCharge(0.0), ResistancePerCharge(0.0)};
  p.current_cap = {Amps(0.0), Amps(10.0)};
  p.total_current = Amps(2.0);
  auto y = SolveMarginalCostAllocation(p);
  EXPECT_DOUBLE_EQ(y[0].value(), 0.0);
  EXPECT_NEAR(y[1].value(), 2.0, 1e-6);
}

TEST(AllocatorTest, GrowthTermShiftsLoadAway) {
  // Two equal resistances, but battery 0's DCIR grows as it drains: the
  // delta-corrected split favours battery 1.
  MarginalCostProblem p;
  p.resistance = {Ohms(0.05), Ohms(0.05)};
  p.dcir_growth = {ResistancePerCharge(1e-4), ResistancePerCharge(0.0)};
  p.current_cap = {Amps(100.0), Amps(100.0)};
  p.total_current = Amps(4.0);
  p.horizon = Seconds(600.0);
  auto y = SolveMarginalCostAllocation(p);
  EXPECT_LT(y[0].value(), y[1].value());
  EXPECT_NEAR(Sum(y), 4.0, 1e-6);
}

TEST(AllocatorTest, MarginalCostsEqualAtOptimum) {
  MarginalCostProblem p;
  p.resistance = {Ohms(0.03), Ohms(0.07)};
  p.dcir_growth = {ResistancePerCharge(5e-5), ResistancePerCharge(2e-5)};
  p.current_cap = {Amps(100.0), Amps(100.0)};
  p.total_current = Amps(5.0);
  p.horizon = Seconds(600.0);
  auto y = SolveMarginalCostAllocation(p);
  auto mc = [&](size_t i) {
    double hg3 = 3.0 * p.horizon.value() * p.dcir_growth[i].value();
    return 2.0 * p.resistance[i].value() * y[i].value() + hg3 * y[i].value() * y[i].value();
  };
  EXPECT_NEAR(mc(0), mc(1), 1e-3 * mc(0));
}

// --- Differential test against the reference bisection --------------------

// The allocator's specification, frozen: the fixed 120-step bisection that
// SolveMarginalCostAllocation used to run. The solver now finds the same
// multiplier with a handful of evaluations and must return exactly these
// doubles. Do not edit: any change here moves every pinned digest.
struct ReferenceSolution {
  std::vector<double> currents;
  double lambda = 0.0;     // Final multiplier (0 when nothing was solved).
  double lambda_hi = 0.0;  // The bisection's upper bracket.
};

double ReferenceCurrentAtMultiplier(double r, double hg3, double lambda) {
  if (lambda <= 0.0) {
    return 0.0;
  }
  if (hg3 <= 0.0) {
    return lambda / (2.0 * r);
  }
  double disc = 4.0 * r * r + 4.0 * hg3 * lambda;
  return (-2.0 * r + std::sqrt(disc)) / (2.0 * hg3);
}

ReferenceSolution ReferenceBisection(const MarginalCostProblem& problem) {
  const size_t n = problem.resistance.size();
  ReferenceSolution out;
  out.currents.assign(n, 0.0);
  const double total = problem.total_current.value();
  const double horizon = problem.horizon.value();
  if (total <= 0.0 || n == 0) {
    return out;
  }
  std::vector<double> resistance(n), growth(n), cap(n);
  double cap_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    resistance[i] = problem.resistance[i].value();
    growth[i] = problem.dcir_growth[i].value();
    cap[i] = problem.current_cap[i].value();
    cap_sum += cap[i];
  }
  if (cap_sum <= total) {
    out.currents = cap;
    return out;
  }
  auto hg3 = [&](size_t i) { return 3.0 * horizon * growth[i]; };
  auto total_at = [&](double lambda) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (cap[i] <= 0.0) {
        continue;
      }
      double y = ReferenceCurrentAtMultiplier(resistance[i], hg3(i), lambda);
      sum += std::min(y, cap[i]);
    }
    return sum;
  };
  double lambda_hi = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (cap[i] <= 0.0) {
      continue;
    }
    double mc = 2.0 * resistance[i] * cap[i] + hg3(i) * cap[i] * cap[i];
    lambda_hi = std::max(lambda_hi, mc);
  }
  lambda_hi *= 1.0 + 1e-9;
  double lo = 0.0;
  double hi = lambda_hi;
  for (int iter = 0; iter < 120; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (total_at(mid) < total) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  double lambda = 0.5 * (lo + hi);
  for (size_t i = 0; i < n; ++i) {
    if (cap[i] <= 0.0) {
      continue;
    }
    double y = ReferenceCurrentAtMultiplier(resistance[i], hg3(i), lambda);
    out.currents[i] = std::min(y, cap[i]);
  }
  out.lambda = lambda;
  out.lambda_hi = lambda_hi;
  return out;
}

// Bit-for-bit equality (memcmp, so -0.0 vs 0.0 and NaN payloads count).
bool SameBits(const std::vector<Current>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    double g = got[i].value();
    if (std::memcmp(&g, &want[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

MarginalCostProblem MakeProblem(const std::vector<double>& r, const std::vector<double>& g,
                                const std::vector<double>& cap, double total, double horizon) {
  MarginalCostProblem p;
  for (size_t i = 0; i < r.size(); ++i) {
    p.resistance.push_back(Ohms(r[i]));
    p.dcir_growth.push_back(ResistancePerCharge(g[i]));
    p.current_cap.push_back(Amps(cap[i]));
  }
  p.total_current = Amps(total);
  p.horizon = Seconds(horizon);
  return p;
}

double LogUniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
}

// The solver returns the bisection's midpoint of (prev(T), T) in closed
// form when lambda_hi < T * 2^32, and replays the bisection otherwise.
// Classify a solved case by which side of that line it falls (2x margin).
bool TakesReplayBranch(const ReferenceSolution& ref) {
  return ref.lambda_hi > ref.lambda * 0x1p33;
}

void ExpectMatchesReference(const MarginalCostProblem& p, const char* label) {
  ReferenceSolution ref = ReferenceBisection(p);
  std::vector<Current> got = SolveMarginalCostAllocation(p);
  ASSERT_TRUE(SameBits(got, ref.currents)) << label;
}

TEST(AllocatorDifferentialTest, OneEligibleBattery) {
  ExpectMatchesReference(MakeProblem({0.05}, {0.0}, {10.0}, 3.0, 600.0), "n=1, g=0");
  ExpectMatchesReference(MakeProblem({0.05}, {2e-4}, {10.0}, 3.0, 600.0), "n=1, g>0");
  std::vector<double> r = {0.05, 0.02, 0.3};
  std::vector<double> g = {1e-4, 1e-4, 0.0};
  std::vector<double> cap = {0.0, 4.0, 0.0};
  ExpectMatchesReference(MakeProblem(r, g, cap, 1.5, 600.0), "one of three eligible");
}

TEST(AllocatorDifferentialTest, MixedZeroCaps) {
  std::vector<double> r = {0.05, 0.08, 0.02, 0.11};
  std::vector<double> g = {1e-4, 0.0, 3e-4, 5e-5};
  std::vector<double> cap = {6.0, 0.0, 2.5, 0.0};
  ExpectMatchesReference(MakeProblem(r, g, cap, 4.0, 900.0), "zero caps interleaved");
}

TEST(AllocatorDifferentialTest, ZeroGrowthWithPositiveHorizon) {
  // hg3 == 0 takes the linear branch of the inverse marginal cost.
  std::vector<double> r = {0.03, 0.07, 0.2};
  std::vector<double> g = {0.0, 0.0, 0.0};
  std::vector<double> cap = {5.0, 5.0, 5.0};
  ExpectMatchesReference(MakeProblem(r, g, cap, 7.5, 3600.0), "g=0, H>0");
}

TEST(AllocatorDifferentialTest, SubnormalTotals) {
  // A subnormal target against ordinary caps (the replay branch), and
  // subnormal caps and target, where T itself is subnormal.
  MarginalCostProblem a = MakeProblem({0.05, 0.1}, {1e-4, 0.0}, {10.0, 10.0}, 1e-310, 600.0);
  EXPECT_TRUE(TakesReplayBranch(ReferenceBisection(a)));
  ExpectMatchesReference(a, "subnormal total");
  MarginalCostProblem b = MakeProblem({0.05, 0.1}, {0.0, 0.0}, {1e-310, 2e-310}, 2e-310, 600.0);
  ExpectMatchesReference(b, "subnormal caps and total");
}

TEST(AllocatorDifferentialTest, TinyTotalAgainstHugeCapsReplays) {
  // lambda_hi / T is about 2^85: the bisection spends its 120 steps before
  // the bracket closes on adjacent doubles, so only the replay matches.
  std::vector<double> r = {0.05, 0.02, 0.4};
  std::vector<double> g = {2e-4, 0.0, 1e-5};
  std::vector<double> cap = {1e4, 1e4, 1e4};
  MarginalCostProblem p = MakeProblem(r, g, cap, 1e-16, 600.0);
  ASSERT_TRUE(TakesReplayBranch(ReferenceBisection(p)));
  ExpectMatchesReference(p, "lambda_hi / T > 2^32");
}

TEST(AllocatorDifferentialTest, ThresholdAboveTheBracketReplays) {
  // A growth so small that 4 hg3 lambda vanishes against 4 r^2: the
  // reference's total_at is 0 across the whole bracket, so T > lambda_hi
  // and the bisection never converges. The replay reproduces it anyway.
  MarginalCostProblem p = MakeProblem({1.0, 1.0}, {1e-21, 1e-21}, {1.0, 1.0}, 0.5, 600.0);
  ExpectMatchesReference(p, "T above lambda_hi");
}

TEST(AllocatorDifferentialTest, SaturatedReturnsCaps) {
  MarginalCostProblem over = MakeProblem({0.05, 0.05}, {1e-4, 0.0}, {1.0, 2.0}, 5.0, 600.0);
  ExpectMatchesReference(over, "cap_sum < total");
  MarginalCostProblem exact = MakeProblem({0.05, 0.05}, {1e-4, 0.0}, {1.0, 2.0}, 3.0, 600.0);
  ExpectMatchesReference(exact, "cap_sum == total");
}

TEST(AllocatorDifferentialTest, BitIdenticalOnSeededGrid) {
  // 240k problems: n = 1..4, zero caps, g = 0 and g > 0, horizons from 0 to
  // a day, and totals log-uniform from 1e-30 to 1.2 of the cap sum (below
  // about 1e-20 the bisection runs out of steps before its bracket closes).
  Rng rng(20150204);
  int mismatches = 0;
  int closed_form = 0;
  int replay = 0;
  for (int k = 0; k < 240000; ++k) {
    size_t n = 1 + rng.NextBounded(4);
    MarginalCostProblem p;
    double cap_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      p.resistance.push_back(Ohms(LogUniform(rng, 1e-3, 5.0)));
      double growth = rng.Bernoulli(0.3) ? 0.0 : LogUniform(rng, 1e-8, 1e-2);
      p.dcir_growth.push_back(ResistancePerCharge(growth));
      double cap = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.01, 20.0);
      p.current_cap.push_back(Amps(cap));
      cap_sum += cap;
    }
    p.horizon = Seconds(rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.0, 86400.0));
    double fraction = LogUniform(rng, 1e-30, 1.2);
    p.total_current = Amps(fraction * std::max(cap_sum, 1.0));
    ReferenceSolution ref = ReferenceBisection(p);
    std::vector<Current> got = SolveMarginalCostAllocation(p);
    if (!SameBits(got, ref.currents)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "problem " << k << " differs from the reference";
      }
    }
    if (ref.lambda > 0.0) {
      (TakesReplayBranch(ref) ? replay : closed_form) += 1;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Both ways of returning the bisection's answer are exercised.
  EXPECT_GT(closed_form, 40000);
  EXPECT_GT(replay, 40000);
}

TEST(NormalizeSharesTest, NormalisesPositiveWeights) {
  auto s = NormalizeShares({2.0, 6.0});
  EXPECT_NEAR(s[0], 0.25, 1e-12);
  EXPECT_NEAR(s[1], 0.75, 1e-12);
}

TEST(NormalizeSharesTest, AllZeroFallsBackToUniform) {
  auto s = NormalizeShares({0.0, 0.0, 0.0});
  EXPECT_NEAR(s[0], 1.0 / 3.0, 1e-12);
}

TEST(NormalizeSharesTest, EligibilityMasksEntries) {
  std::vector<bool> eligible = {true, false, true};
  auto s = NormalizeShares({1.0, 5.0, 1.0}, &eligible);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
  EXPECT_NEAR(s[0], 0.5, 1e-12);
  EXPECT_NEAR(s[2], 0.5, 1e-12);
}

TEST(NormalizeSharesTest, NoEligibleEntriesReturnsZeros) {
  std::vector<bool> eligible = {false, false};
  auto s = NormalizeShares({0.0, 0.0}, &eligible);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

// --- Degraded-mode exclusion (runtime fault resilience) ---------------------

// The in-place forms as values, so each case reads as one call.
std::vector<double> Degraded(std::vector<double> shares, const std::vector<bool>& excluded) {
  std::vector<bool> eligible;
  ApplyDegradedExclusion(excluded, &shares, &eligible);
  return shares;
}

std::vector<double> Ramped(std::vector<double> shares, const std::vector<double>& ramp) {
  std::vector<bool> eligible;
  ApplyReintegrationRamp(ramp, &shares, &eligible);
  return shares;
}

TEST(ApplyDegradedExclusionTest, ExcludedBatteriesGetExactlyZero) {
  std::vector<bool> excluded = {false, true, false, true};
  auto d = Degraded({0.4, 0.3, 0.2, 0.1}, excluded);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[3], 0.0);
  EXPECT_NEAR(d[0] + d[2], 1.0, 1e-12);
  EXPECT_NEAR(d[0] / d[2], 2.0, 1e-12);  // Survivors keep their proportions.
}

TEST(ApplyDegradedExclusionTest, SurvivorsWithZeroWeightGoUniform) {
  std::vector<bool> excluded = {true, false, false};
  auto d = Degraded({1.0, 0.0, 0.0}, excluded);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_NEAR(d[1], 0.5, 1e-12);
  EXPECT_NEAR(d[2], 0.5, 1e-12);
}

TEST(ApplyDegradedExclusionTest, AllExcludedYieldsAllZeros) {
  std::vector<bool> excluded = {true, true};
  auto d = Degraded({0.5, 0.5}, excluded);
  EXPECT_DOUBLE_EQ(d[0] + d[1], 0.0);
}

// Property sweep: for random share vectors and every single-battery
// exclusion, the degraded vector still sums to 1, stays non-negative, and
// zeroes exactly the excluded battery.
TEST(ApplyDegradedExclusionTest, PropertySweepSingleExclusion) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 2 + rng.NextBounded(5);  // 2..6 batteries.
    std::vector<double> shares(n);
    for (auto& s : shares) {
      s = rng.NextDouble();
    }
    for (size_t i = 0; i < n; ++i) {
      std::vector<bool> excluded(n, false);
      excluded[i] = true;
      auto d = Degraded(shares, excluded);
      EXPECT_DOUBLE_EQ(d[i], 0.0);
      double sum = 0.0;
      for (size_t b = 0; b < n; ++b) {
        EXPECT_GE(d[b], 0.0);
        sum += d[b];
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(ApplyDegradedExclusionTest, PropertySweepMultiExclusion) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 3 + rng.NextBounded(4);  // 3..6 batteries.
    std::vector<double> shares(n);
    std::vector<bool> excluded(n, false);
    size_t excluded_count = 0;
    for (size_t i = 0; i < n; ++i) {
      shares[i] = rng.NextDouble();
      excluded[i] = rng.Bernoulli(0.4);
      excluded_count += excluded[i] ? 1 : 0;
    }
    auto d = Degraded(shares, excluded);
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(d[i], 0.0);
      if (excluded[i]) {
        EXPECT_DOUBLE_EQ(d[i], 0.0);
      }
      sum += d[i];
    }
    if (excluded_count == n) {
      EXPECT_DOUBLE_EQ(sum, 0.0);
    } else {
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(ReintegrationRampTest, AllFullRampIsBitIdenticalPassThrough) {
  std::vector<double> shares = {0.3141592653589793, 0.6858407346410207};
  std::vector<double> out = Ramped(shares, {1.0, 1.0});
  // Exact equality, not NEAR: the no-op path must not renormalise.
  EXPECT_DOUBLE_EQ(out[0], shares[0]);
  EXPECT_DOUBLE_EQ(out[1], shares[1]);
}

TEST(ReintegrationRampTest, PartialRampScalesThenRenormalises) {
  std::vector<double> out = Ramped({0.5, 0.5}, {0.2, 1.0});
  // Scaled to {0.1, 0.5}, renormalised to sum 1.
  EXPECT_NEAR(out[0], 0.1 / 0.6, 1e-12);
  EXPECT_NEAR(out[1], 0.5 / 0.6, 1e-12);
  EXPECT_NEAR(out[0] + out[1], 1.0, 1e-12);
}

TEST(ReintegrationRampTest, ZeroRampExcludesTheReturningBattery) {
  std::vector<double> out = Ramped({0.4, 0.6}, {0.0, 1.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_NEAR(out[1], 1.0, 1e-12);
}

}  // namespace
}  // namespace sdb
