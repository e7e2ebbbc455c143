#include "src/emu/monte_carlo.h"

#include <algorithm>
#include <vector>

#include "src/chem/soa_kernel.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace sdb {

namespace {

// Battery-life distribution across sweep runs, in hours. Bounds cover the
// scenarios we sweep (smartwatch days up to multi-day tablet runs).
obs::HistogramMetric* BatteryLifeHistogram() {
  static obs::HistogramMetric* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "sdb.mc.battery_life_h", {1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 36.0, 48.0, 72.0});
  return histogram;
}

// Accumulates one shard's seeds serially, in seed order.
MonteCarloResult RunShard(const ScenarioFn& scenario, uint64_t base_seed, int first_run,
                          int last_run) {
  SDB_TRACE_SPAN("mc", "mc.shard");
  MonteCarloResult shard;
  for (int r = first_run; r < last_run; ++r) {
    SimResult sim = scenario(base_seed + static_cast<uint64_t>(r));
    double life_h = sim.first_shortfall.has_value() ? ToHours(*sim.first_shortfall)
                                                    : ToHours(sim.elapsed);
    shard.battery_life_h.Add(life_h);
    shard.total_loss_j.Add(sim.TotalLoss().value());
    shard.delivered_j.Add(sim.delivered.value());
    BatteryLifeHistogram()->Observe(life_h);
    if (sim.first_shortfall.has_value()) {
      ++shard.shortfall_runs;
    }
    ++shard.runs;
  }
  return shard;
}

}  // namespace

MonteCarloResult RunMonteCarlo(const ScenarioFn& scenario, int runs,
                               const MonteCarloOptions& options) {
  SDB_CHECK(runs > 0);
  SDB_CHECK(scenario != nullptr);
  SDB_TRACE_SPAN("mc", "mc.sweep");
  obs::Stopwatch stopwatch;
  uint64_t cell_steps_before = soa::TotalCellSteps();

  int num_shards = (runs + kMonteCarloShardSize - 1) / kMonteCarloShardSize;
  std::vector<MonteCarloResult> shards(static_cast<size_t>(num_shards));

  int jobs = options.jobs > 0 ? options.jobs : ThreadPool::DefaultThreadCount();
  Duration worker_wait;
  auto run_shard = [&](int64_t s) {
    // Hermetic, as RunSeededSweep's slots are: a shard never emits into a
    // journal its caller installed (the --flight-out process journal when
    // shards run inline), so that journal does not depend on --jobs.
    obs::JournalScope silence(nullptr);
    int first = static_cast<int>(s) * kMonteCarloShardSize;
    int last = std::min(runs, first + kMonteCarloShardSize);
    shards[static_cast<size_t>(s)] = RunShard(scenario, options.base_seed, first, last);
  };
  if (jobs <= 1 || num_shards <= 1) {
    for (int64_t s = 0; s < num_shards; ++s) {
      run_shard(s);
    }
  } else {
    ThreadPool pool(jobs);
    ParallelFor(&pool, num_shards, run_shard);
    worker_wait = pool.stats().worker_wait;
  }

  // Seed-ordered reduction: shard s covers seeds strictly before shard s+1,
  // so folding in index order reproduces one fixed reduction tree.
  MonteCarloResult result;
  {
    SDB_TRACE_SPAN("mc", "mc.merge");
    for (const MonteCarloResult& shard : shards) {
      result.battery_life_h.Merge(shard.battery_life_h);
      result.total_loss_j.Merge(shard.total_loss_j);
      result.delivered_j.Merge(shard.delivered_j);
      result.shortfall_runs += shard.shortfall_runs;
      result.runs += shard.runs;
    }
  }

  Duration wall = Seconds(stopwatch.ElapsedSeconds());
  result.cell_steps = soa::TotalCellSteps() - cell_steps_before;
  result.cell_steps_per_s =
      wall.value() > 0.0 ? static_cast<double>(result.cell_steps) / wall.value() : 0.0;
  RecordSweep(static_cast<uint64_t>(num_shards), static_cast<uint64_t>(runs), worker_wait,
              wall);
  return result;
}

MonteCarloResult RunMonteCarlo(const ScenarioFn& scenario, int runs, uint64_t base_seed) {
  MonteCarloOptions options;
  options.base_seed = base_seed;
  return RunMonteCarlo(scenario, runs, options);
}

void RecordSweep(uint64_t tasks, uint64_t runs, Duration worker_wait, Duration wall) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("sdb.sweep.sweeps")->Increment();
  registry.GetCounter("sdb.sweep.tasks_executed")->Increment(tasks);
  registry.GetCounter("sdb.sweep.runs_executed")->Increment(runs);
  registry.GetGauge("sdb.sweep.worker_wait_s")->Add(worker_wait.value());
  registry.GetGauge("sdb.sweep.wall_s")->Add(wall.value());
}

}  // namespace sdb
