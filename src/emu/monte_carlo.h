// Monte-Carlo evaluation harness: runs a scenario across many seeded
// workload variations and reports distributional statistics, so policy
// comparisons (Fig. 13-style claims) come with spread, not just a single
// trace. Everything stays deterministic given the base seed.
//
// Parallel execution model: the seed range is cut into fixed-size shards
// (kMonteCarloShardSize seeds each, independent of the worker count). Each
// shard accumulates its RunningStats serially in seed order; shard
// accumulators are then merged in shard order with RunningStats::Merge.
// Because both the shard boundaries and the merge order are functions of
// `runs` alone, the result is bit-identical for any `jobs` value — 1 worker
// and 64 workers produce the same doubles.
#ifndef SRC_EMU_MONTE_CARLO_H_
#define SRC_EMU_MONTE_CARLO_H_

#include <functional>

#include "src/emu/simulator.h"
#include "src/util/histogram.h"

namespace sdb {

struct MonteCarloResult {
  RunningStats battery_life_h;
  RunningStats total_loss_j;
  RunningStats delivered_j;
  int shortfall_runs = 0;  // Runs that hit a shortfall before the trace ended.
  int runs = 0;
  // Throughput accounting for the sweep window (from the process-wide
  // "sdb.chem.cell_steps" counter): kernel cell-steps executed during the
  // sweep and the resulting rate. Concurrent sweeps in other threads would
  // both be counted; the bench harnesses run one sweep at a time.
  uint64_t cell_steps = 0;
  double cell_steps_per_s = 0.0;
};

// One experiment instance: given a per-run seed, build the rig + trace and
// run it, returning the SimResult. The callback owns all state; the harness
// only aggregates. Under jobs > 1 the callback is invoked concurrently, so
// it must not touch shared mutable state.
using ScenarioFn = std::function<SimResult(uint64_t seed)>;

// Seeds per shard task. Fixed so the reduction tree never depends on the
// worker count (see the determinism note above); small enough that a
// 4-thread pool load-balances a 24-run sweep.
inline constexpr int kMonteCarloShardSize = 4;

struct MonteCarloOptions {
  uint64_t base_seed = 1;
  // Worker threads: 1 = serial in the calling thread; 0 = auto
  // (SDB_THREADS env override, else hardware concurrency).
  int jobs = 1;
};

// Runs `scenario` for seeds base_seed .. base_seed + runs - 1.
MonteCarloResult RunMonteCarlo(const ScenarioFn& scenario, int runs,
                               const MonteCarloOptions& options);

// Serial-compatible shorthand (jobs = 1).
MonteCarloResult RunMonteCarlo(const ScenarioFn& scenario, int runs, uint64_t base_seed = 1);

// Adds one sweep to the process-wide "sdb.sweep.*" metrics (sweeps,
// tasks_executed, runs_executed, worker_wait_s, wall_s), so the execution
// engine's own cost is observable next to its results. RunMonteCarlo calls
// it once per sweep; other parallel sweep loops (the bench harnesses') call
// it too. Thread-safe.
void RecordSweep(uint64_t tasks, uint64_t runs, Duration worker_wait, Duration wall);

}  // namespace sdb

#endif  // SRC_EMU_MONTE_CARLO_H_
