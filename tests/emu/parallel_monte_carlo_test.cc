// The parallel sweep engine's core guarantee: RunMonteCarlo is a pure
// function of (scenario, runs, base_seed) — the jobs knob only changes
// wall-clock, never a single bit of the result — and that result is the
// serial fold of the scenario's own runs. Exact (==) double comparisons
// throughout are deliberate.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/chem/soa_kernel.h"
#include "src/emu/monte_carlo.h"
#include "src/emu/workload.h"
#include "src/hw/fault.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"

namespace sdb {
namespace {

// A deliberately cheap scenario (4 h at 30 s ticks) whose outcome still
// varies with the seed: bursty load + fuel-gauge noise.
SimResult BurstyWatchScenario(uint64_t seed) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeWatchLiIon(MilliAmpHours(120.0)), 1.0);
  cells.emplace_back(MakeType4Bendable(MilliAmpHours(120.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), seed);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);
  SimConfig config;
  config.tick = Seconds(30.0);
  config.runtime_period = Minutes(10.0);
  Simulator sim(&runtime, config);
  PowerTrace load = MakeBurstyTrace(Watts(0.08), Watts(0.6), 0.25, Hours(4.0),
                                    Minutes(5.0), seed);
  return sim.Run(load);
}

// The bursty scenario with a seed-keyed fault schedule layered on top:
// gauge noise on battery 0, a mid-run open-circuit dropout of battery 1,
// and a regulator collapse window. Fault randomness comes from the same
// seed, so the whole faulted run is a pure function of it.
SimResult FaultedWatchScenario(uint64_t seed) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeWatchLiIon(MilliAmpHours(120.0)), 1.0);
  cells.emplace_back(MakeType4Bendable(MilliAmpHours(120.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), seed);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);
  SimConfig config;
  config.tick = Seconds(30.0);
  config.runtime_period = Minutes(10.0);
  config.faults.seed = seed;
  config.faults
      .Add(FaultEvent{.kind = FaultClass::kGaugeNoise,
                      .start = Minutes(20.0),
                      .end = Hours(3.0),
                      .battery = 0,
                      .magnitude = 15.0})
      .Add(FaultEvent{.kind = FaultClass::kOpenCircuit,
                      .start = Hours(1.0),
                      .end = Hours(2.0),
                      .battery = 1})
      .Add(FaultEvent{.kind = FaultClass::kRegulatorCollapse,
                      .start = Hours(2.5),
                      .end = Hours(3.5),
                      .magnitude = 0.7});
  Simulator sim(&runtime, config);
  PowerTrace load = MakeBurstyTrace(Watts(0.08), Watts(0.6), 0.25, Hours(4.0),
                                    Minutes(5.0), seed);
  return sim.Run(load);
}

// Seed-varied flavour of GoldenResultsTest.FastChargeTablet, shortened to
// one hour per run: empty tablet pack charging on a wall brick under a
// light foreground load (both circuits active every tick).
SimResult FastChargeTabletScenario(uint64_t seed) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.05);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.05);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), seed);
  SdbRuntime runtime(&micro);
  runtime.SetChargingDirective(0.8);
  runtime.SetDischargingDirective(0.8);

  SimConfig config;
  config.tick = Seconds(5.0);
  config.runtime_period = Minutes(1.0);
  config.stop_on_shortfall = false;
  Simulator sim(&runtime, config);
  return sim.Run(PowerTrace::Constant(Watts(2.0), Hours(1.0)),
                 PowerTrace::Constant(Watts(30.0), Hours(1.0)));
}

// Seed-varied flavour of GoldenResultsTest.SmartwatchWeek, compressed to
// two days + nightly recharges so aging still carries across days.
SimResult SmartwatchWeekScenario(uint64_t seed) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeWatchLiIon(MilliAmpHours(200.0)), 1.0);
  cells.emplace_back(MakeType4Bendable(MilliAmpHours(200.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), seed);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);
  runtime.SetWorkloadHint(WorkloadHint{Hours(9.0), Watts(0.70), Hours(1.0)});

  SimConfig config;
  config.tick = Seconds(10.0);
  config.runtime_period = Minutes(10.0);
  Simulator sim(&runtime, config);

  SimResult total;
  for (int day = 0; day < 2; ++day) {
    SmartwatchDayConfig day_config;
    day_config.seed = seed * 10 + static_cast<uint64_t>(day);
    SimResult use = sim.Run(MakeSmartwatchDayTrace(day_config));
    SimResult charge = sim.RunChargeOnly(Watts(2.5), Hours(3.0));
    total.elapsed = total.elapsed + use.elapsed;
    total.delivered = total.delivered + use.delivered;
    total.battery_loss = total.battery_loss + use.battery_loss + charge.battery_loss;
    total.circuit_loss = total.circuit_loss + use.circuit_loss + charge.circuit_loss;
    total.final_soc = use.final_soc;
    if (!total.first_shortfall.has_value()) {
      total.first_shortfall = use.first_shortfall;
    }
  }
  return total;
}

void ExpectBitIdentical(const MonteCarloResult& a, const MonteCarloResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.shortfall_runs, b.shortfall_runs);
  const RunningStats* lhs[] = {&a.battery_life_h, &a.total_loss_j, &a.delivered_j};
  const RunningStats* rhs[] = {&b.battery_life_h, &b.total_loss_j, &b.delivered_j};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(lhs[i]->count(), rhs[i]->count());
    EXPECT_EQ(lhs[i]->mean(), rhs[i]->mean());
    EXPECT_EQ(lhs[i]->variance(), rhs[i]->variance());
    EXPECT_EQ(lhs[i]->min(), rhs[i]->min());
    EXPECT_EQ(lhs[i]->max(), rhs[i]->max());
  }
}

MonteCarloResult Sweep(int runs, int jobs, const ScenarioFn& scenario = BurstyWatchScenario) {
  MonteCarloOptions options;
  options.base_seed = 42;
  options.jobs = jobs;
  return RunMonteCarlo(scenario, runs, options);
}

// The sweep with no engine: runs the scenario seed by seed on the calling
// thread and folds the results by the reduction monte_carlo.h documents —
// serially in seed order within each kMonteCarloShardSize-seed shard, then
// shard by shard in seed order.
MonteCarloResult SerialReferenceSweep(const ScenarioFn& scenario, int runs) {
  const uint64_t base_seed = 42;  // Sweep()'s.
  MonteCarloResult result;
  for (int first = 0; first < runs; first += kMonteCarloShardSize) {
    MonteCarloResult shard;
    for (int r = first; r < std::min(runs, first + kMonteCarloShardSize); ++r) {
      SimResult sim = scenario(base_seed + static_cast<uint64_t>(r));
      shard.battery_life_h.Add(sim.first_shortfall.has_value() ? ToHours(*sim.first_shortfall)
                                                               : ToHours(sim.elapsed));
      shard.total_loss_j.Add(sim.TotalLoss().value());
      shard.delivered_j.Add(sim.delivered.value());
      shard.shortfall_runs += sim.first_shortfall.has_value() ? 1 : 0;
      ++shard.runs;
    }
    result.battery_life_h.Merge(shard.battery_life_h);
    result.total_loss_j.Merge(shard.total_loss_j);
    result.delivered_j.Merge(shard.delivered_j);
    result.shortfall_runs += shard.shortfall_runs;
    result.runs += shard.runs;
  }
  return result;
}

// A sweep of `scenario` at jobs 1, 2 and 8 equals the serial reference.
void ExpectSweepsMatchSerialReference(const ScenarioFn& scenario, int runs) {
  MonteCarloResult reference = SerialReferenceSweep(scenario, runs);
  EXPECT_EQ(reference.runs, runs);
  for (int jobs : {1, 2, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ExpectBitIdentical(Sweep(runs, jobs, scenario), reference);
  }
}

TEST(ParallelMonteCarloTest, ThreadCountDoesNotChangeResults) {
  const int kRuns = 64;
  MonteCarloResult serial = Sweep(kRuns, 1);
  MonteCarloResult two = Sweep(kRuns, 2);
  MonteCarloResult eight = Sweep(kRuns, 8);
  EXPECT_EQ(serial.runs, kRuns);
  ExpectBitIdentical(serial, two);
  ExpectBitIdentical(serial, eight);
}

// The two golden scenarios, swept with every cell stepped through
// BatteryPack::StepLanes (the batch), against the serial reference (the
// scalar fold): the tablet keeps both circuits busy every tick and the watch
// week carries aging across days.
TEST(SoaMonteCarloPinTest, FastChargeTabletBatchMatchesScalarAcrossJobs) {
  ExpectSweepsMatchSerialReference(FastChargeTabletScenario, 6);
}

TEST(SoaMonteCarloPinTest, SmartwatchWeekBatchMatchesScalarAcrossJobs) {
  ExpectSweepsMatchSerialReference(SmartwatchWeekScenario, 4);
}

TEST(ParallelMonteCarloTest, RaggedLastShardStaysDeterministic) {
  // 13 runs with shard size 4: a 1-seed tail shard must merge identically.
  ASSERT_NE(13 % kMonteCarloShardSize, 0);
  ExpectBitIdentical(Sweep(13, 1), Sweep(13, 8));
}

TEST(ParallelMonteCarloTest, RepeatedInvocationsAreStable) {
  MonteCarloResult first = Sweep(16, 8);
  MonteCarloResult second = Sweep(16, 8);
  EXPECT_EQ(first.runs, second.runs);
  EXPECT_EQ(first.shortfall_runs, second.shortfall_runs);
  ExpectBitIdentical(first, second);
}

TEST(ParallelMonteCarloTest, SeedsActuallyVaryTheOutcome) {
  // Guard against the scenario degenerating into a constant: the
  // determinism above would then be vacuous.
  MonteCarloResult result = Sweep(16, 4);
  EXPECT_GT(result.delivered_j.max() - result.delivered_j.min(), 0.0);
}

TEST(ParallelMonteCarloTest, AutoJobsMatchesExplicitJobs) {
  MonteCarloOptions auto_jobs;
  auto_jobs.base_seed = 42;
  auto_jobs.jobs = 0;  // SDB_THREADS / hardware concurrency.
  ExpectBitIdentical(RunMonteCarlo(BurstyWatchScenario, 16, auto_jobs), Sweep(16, 2));
}

TEST(ParallelMonteCarloTest, FaultInjectionStaysBitIdenticalAcrossJobs) {
  // The acceptance bar for the fault layer: injected faults draw from the
  // same seeded streams as everything else, so a faulted sweep is exactly
  // as shardable as a healthy one.
  MonteCarloOptions options;
  options.base_seed = 42;
  auto sweep = [&options](int jobs) {
    options.jobs = jobs;
    return RunMonteCarlo(FaultedWatchScenario, 24, options);
  };
  MonteCarloResult serial = sweep(1);
  ExpectBitIdentical(serial, sweep(2));
  ExpectBitIdentical(serial, sweep(8));
  // The faults actually bit: the faulted sweep differs from the healthy one.
  options.jobs = 1;
  MonteCarloResult healthy = RunMonteCarlo(BurstyWatchScenario, 24, options);
  EXPECT_NE(serial.delivered_j.mean(), healthy.delivered_j.mean());
}

// Shards are hermetic: no run emits into a journal the caller installed
// (sdbsim's --flight-out process journal), so what that journal holds does
// not depend on whether the shards ran inline or on worker threads.
TEST(ParallelMonteCarloTest, ShardsNeverEmitIntoTheCallersJournal) {
  MonteCarloOptions options;
  options.base_seed = 42;
  for (int jobs : {1, 4}) {
    options.jobs = jobs;
    obs::EventJournal journal;
    obs::JournalScope scope(&journal);
    (void)RunMonteCarlo(FaultedWatchScenario, 4, options);
    EXPECT_TRUE(journal.Snapshot().empty()) << "jobs " << jobs;
  }
#if SDB_JOURNAL
  // Not vacuous: the same run journals when the caller plays it directly.
  obs::EventJournal direct;
  obs::JournalScope scope(&direct);
  (void)FaultedWatchScenario(42);
  EXPECT_FALSE(direct.Snapshot().empty());
#endif
}

TEST(ParallelMonteCarloTest, SweepCountersObserveTheRun) {
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  (void)Sweep(16, 4);
  obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  // Copies, so operator[] reads 0 for a metric the first sweep registers.
  EXPECT_EQ(after.counters["sdb.sweep.sweeps"], before.counters["sdb.sweep.sweeps"] + 1);
  EXPECT_EQ(after.counters["sdb.sweep.runs_executed"],
            before.counters["sdb.sweep.runs_executed"] + 16);
  EXPECT_EQ(after.counters["sdb.sweep.tasks_executed"],
            before.counters["sdb.sweep.tasks_executed"] +
                (16 + kMonteCarloShardSize - 1) / kMonteCarloShardSize);
  EXPECT_GT(after.gauges["sdb.sweep.wall_s"], before.gauges["sdb.sweep.wall_s"]);
}

TEST(ParallelMonteCarloTest, SweepCountsCellSteps) {
  // bench_monte_carlo's mc_cell_steps_per_s reads the sweep's cell-step
  // count, which must tick for the cells BatteryPack::StepLanes steps.
  uint64_t before = soa::TotalCellSteps();
  MonteCarloResult result = Sweep(2, 2, FastChargeTabletScenario);
  EXPECT_GT(result.cell_steps, 0u);
  EXPECT_GE(soa::TotalCellSteps() - before, result.cell_steps);
}

TEST(SweepCountersTest, RecordsAndResets) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetForTest();
  RecordSweep(/*tasks=*/4, /*runs=*/16, /*worker_wait=*/Seconds(0.25), /*wall=*/Seconds(1.5));
  RecordSweep(/*tasks=*/2, /*runs=*/8, /*worker_wait=*/Seconds(0.5), /*wall=*/Seconds(0.5));
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("sdb.sweep.sweeps"), 2u);
  EXPECT_EQ(snap.counters.at("sdb.sweep.tasks_executed"), 6u);
  EXPECT_EQ(snap.counters.at("sdb.sweep.runs_executed"), 24u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sdb.sweep.worker_wait_s"), 0.75);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sdb.sweep.wall_s"), 2.0);

  registry.ResetForTest();
  EXPECT_EQ(registry.Snapshot().counters.at("sdb.sweep.tasks_executed"), 0u);
}

// Sweeps on different pools all report into the process-wide metrics while
// health consumers snapshot them; this races writers against a reader so
// the TSan CI job proves RecordSweep's registry updates are data-race free.
TEST(SweepCountersTest, ConcurrentRecordSweepAndSnapshot) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetForTest();
  constexpr uint64_t kWriters = 4;
  constexpr uint64_t kPerWriter = 2000;

  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::MetricsSnapshot snap = registry.Snapshot();
      // The five metrics are independent relaxed atomics, so mid-record
      // snapshots may be skewed across fields; per-field bounds still hold.
      EXPECT_LE(snap.counters["sdb.sweep.sweeps"], kWriters * kPerWriter);
      EXPECT_LE(snap.counters["sdb.sweep.tasks_executed"], kWriters * kPerWriter * 2);
      EXPECT_GE(snap.gauges["sdb.sweep.worker_wait_s"], 0.0);
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (uint64_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        RecordSweep(/*tasks=*/2, /*runs=*/8, /*worker_wait=*/Seconds(1e-4),
                    /*wall=*/Seconds(2e-4));
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  obs::MetricsSnapshot snap = registry.Snapshot();
  const uint64_t sweeps = snap.counters.at("sdb.sweep.sweeps");
  EXPECT_EQ(sweeps, kWriters * kPerWriter);
  EXPECT_EQ(snap.counters.at("sdb.sweep.tasks_executed"), sweeps * 2);
  EXPECT_EQ(snap.counters.at("sdb.sweep.runs_executed"), sweeps * 8);
  EXPECT_NEAR(snap.gauges.at("sdb.sweep.worker_wait_s"), sweeps * 1e-4, 1e-6);
}

}  // namespace
}  // namespace sdb
