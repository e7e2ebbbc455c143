// Randomised property tests for the Lagrangian allocator: for arbitrary
// resistance/growth/cap vectors and targets, the invariants that every
// policy depends on must hold.
#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "src/core/allocator.h"
#include "src/util/rng.h"

namespace sdb {
namespace {

TEST(AllocatorFuzzTest, InvariantsHoldAcrossRandomProblems) {
  Rng rng(424242);
  for (int episode = 0; episode < 500; ++episode) {
    MarginalCostProblem problem;
    size_t n = 1 + rng.NextBounded(6);
    double cap_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      problem.resistance.push_back(Ohms(rng.Uniform(0.005, 2.0)));
      problem.dcir_growth.push_back(
          ResistancePerCharge(rng.Bernoulli(0.5) ? rng.Uniform(0.0, 1e-3) : 0.0));
      double cap = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(0.1, 12.0);
      problem.current_cap.push_back(Amps(cap));
      cap_sum += cap;
    }
    problem.total_current = Amps(rng.Uniform(0.0, cap_sum * 1.5 + 0.5));
    problem.horizon = Seconds(rng.Uniform(0.0, 3600.0));

    std::vector<Current> y = SolveMarginalCostAllocation(problem);
    ASSERT_EQ(y.size(), n);

    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      // Non-negative and within caps.
      EXPECT_GE(y[i].value(), -1e-12) << "episode " << episode;
      EXPECT_LE(y[i].value(), problem.current_cap[i].value() + 1e-9) << "episode " << episode;
      if (problem.current_cap[i].value() <= 0.0) {
        EXPECT_DOUBLE_EQ(y[i].value(), 0.0) << "episode " << episode;
      }
      sum += y[i].value();
    }
    // Sum equals min(target, total capability), to rounding.
    double expected = std::min(problem.total_current.value(), cap_sum);
    EXPECT_NEAR(sum, expected, expected * 1e-9) << "episode " << episode;
  }
}

TEST(AllocatorFuzzTest, MarginalCostsEqualisedAmongInteriorBatteries) {
  Rng rng(77777);
  for (int episode = 0; episode < 200; ++episode) {
    MarginalCostProblem problem;
    size_t n = 2 + rng.NextBounded(4);
    for (size_t i = 0; i < n; ++i) {
      problem.resistance.push_back(Ohms(rng.Uniform(0.01, 0.5)));
      problem.dcir_growth.push_back(ResistancePerCharge(rng.Uniform(0.0, 5e-4)));
      problem.current_cap.push_back(Amps(rng.Uniform(2.0, 10.0)));
    }
    problem.horizon = Seconds(600.0);
    // Keep the target low enough that several batteries stay interior.
    problem.total_current = Amps(rng.Uniform(0.5, 2.0));

    std::vector<Current> y = SolveMarginalCostAllocation(problem);
    auto marginal = [&](size_t i) {
      double hg3 = 3.0 * problem.horizon.value() * problem.dcir_growth[i].value();
      return 2.0 * problem.resistance[i].value() * y[i].value() +
             hg3 * y[i].value() * y[i].value();
    };
    // Collect marginal costs of interior (uncapped, active) batteries.
    std::vector<double> interior;
    for (size_t i = 0; i < n; ++i) {
      if (y[i].value() > 1e-9 && y[i].value() < problem.current_cap[i].value() - 1e-6) {
        interior.push_back(marginal(i));
      }
    }
    if (interior.size() >= 2) {
      double lo = *std::min_element(interior.begin(), interior.end());
      double hi = *std::max_element(interior.begin(), interior.end());
      EXPECT_NEAR(hi, lo, hi * 1e-8) << "episode " << episode;
    }
  }
}

TEST(AllocatorFuzzTest, CappedBatteriesSitAtOrBelowTheMultiplier) {
  // KKT for a battery held at its cap: its marginal cost there is no higher
  // than the shared multiplier, read off the interior batteries (otherwise
  // moving current from it to an interior battery would lower the cost).
  // Targets span 20..95% of the cap sum so caps bind often.
  Rng rng(20151004);
  int checked = 0;
  for (int episode = 0; episode < 2000; ++episode) {
    MarginalCostProblem problem;
    size_t n = 2 + rng.NextBounded(4);
    double cap_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      problem.resistance.push_back(Ohms(rng.Uniform(0.01, 0.5)));
      problem.dcir_growth.push_back(ResistancePerCharge(rng.Uniform(0.0, 5e-4)));
      double cap = rng.Uniform(0.2, 6.0);
      problem.current_cap.push_back(Amps(cap));
      cap_sum += cap;
    }
    problem.horizon = Seconds(rng.Uniform(0.0, 3600.0));
    problem.total_current = Amps(rng.Uniform(0.2, 0.95) * cap_sum);

    std::vector<Current> y = SolveMarginalCostAllocation(problem);
    auto marginal = [&](size_t i, double current) {
      double hg3 = 3.0 * problem.horizon.value() * problem.dcir_growth[i].value();
      return 2.0 * problem.resistance[i].value() * current + hg3 * current * current;
    };
    std::vector<double> interior;
    std::vector<size_t> capped;
    for (size_t i = 0; i < n; ++i) {
      double cap = problem.current_cap[i].value();
      if (y[i].value() >= cap) {
        capped.push_back(i);
      } else if (y[i].value() > 1e-9 && y[i].value() < cap - 1e-6) {
        interior.push_back(marginal(i, y[i].value()));
      }
    }
    if (interior.empty()) {
      continue;
    }
    double lambda = *std::min_element(interior.begin(), interior.end());
    for (size_t i : capped) {
      EXPECT_LE(marginal(i, problem.current_cap[i].value()), lambda * (1.0 + 1e-8))
          << "episode " << episode << " battery " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 500);
}

TEST(AllocatorFuzzTest, MonotoneInTarget) {
  // Raising the target never lowers any battery's allocation.
  Rng rng(31337);
  for (int episode = 0; episode < 100; ++episode) {
    MarginalCostProblem problem;
    size_t n = 2 + rng.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      problem.resistance.push_back(Ohms(rng.Uniform(0.01, 0.5)));
      problem.dcir_growth.push_back(ResistancePerCharge(rng.Uniform(0.0, 2e-4)));
      problem.current_cap.push_back(Amps(rng.Uniform(1.0, 8.0)));
    }
    problem.horizon = Seconds(600.0);
    problem.total_current = Amps(rng.Uniform(0.2, 3.0));
    std::vector<Current> y_low = SolveMarginalCostAllocation(problem);
    problem.total_current *= rng.Uniform(1.1, 2.0);
    std::vector<Current> y_high = SolveMarginalCostAllocation(problem);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(y_high[i].value(), y_low[i].value() - 1e-6)
          << "episode " << episode << " battery " << i;
    }
  }
}

}  // namespace
}  // namespace sdb
