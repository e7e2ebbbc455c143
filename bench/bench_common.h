// Shared rig builders and formatting helpers for the per-figure benchmark
// harnesses. Every bench prints the paper-style rows with TextTable and a
// short "paper vs measured" note; EXPERIMENTS.md records the outcomes.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "src/chem/library.h"
#include "src/core/runtime.h"
#include "src/emu/monte_carlo.h"
#include "src/emu/simulator.h"
#include "src/hw/microcontroller.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace sdb {
namespace bench {

// A self-owning runtime rig: microcontroller + runtime with stable addresses.
class Rig {
 public:
  explicit Rig(std::vector<Cell> cells, uint64_t seed = 1234)
      : micro_(MakeDefaultMicrocontroller(std::move(cells), seed)), runtime_(&micro_) {}

  SdbMicrocontroller& micro() { return micro_; }
  SdbRuntime& runtime() { return runtime_; }

 private:
  SdbMicrocontroller micro_;
  SdbRuntime runtime_;
};

// The fast-charge + high-energy tablet pack of §5.1 (8000 mAh total split
// by `fast_fraction` of capacity to the fast-charging battery).
inline std::vector<Cell> MakeFastChargeScenarioCells(double fast_fraction,
                                                     double initial_soc = 0.0) {
  std::vector<Cell> cells;
  double total_mah = 8000.0;
  double fast_mah = total_mah * fast_fraction;
  double he_mah = total_mah - fast_mah;
  if (fast_mah > 0.0) {
    cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(fast_mah)), initial_soc);
  }
  if (he_mah > 0.0) {
    cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(he_mah)), initial_soc);
  }
  return cells;
}

// The smart-watch pack of §5.2: 200 mAh rigid Li-ion + 200 mAh bendable.
inline std::vector<Cell> MakeWatchScenarioCells(double initial_soc = 1.0) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeWatchLiIon(MilliAmpHours(200.0)), initial_soc);
  cells.emplace_back(MakeType4Bendable(MilliAmpHours(200.0)), initial_soc);
  return cells;
}

// The 2-in-1 pack of §5.3: two equal traditional Li-ion batteries.
inline std::vector<Cell> MakeTwoInOneCells(double initial_soc = 1.0) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeTwoInOneInternal(MilliAmpHours(4000.0)), initial_soc);
  cells.emplace_back(MakeTwoInOneExternal(MilliAmpHours(4000.0)), initial_soc);
  return cells;
}

inline void PrintNote(const std::string& note) { std::cout << "  note: " << note << "\n"; }

// Worker count for the sweep harnesses: `--jobs N` flag, else the
// SDB_THREADS env override, else hardware concurrency (via the pool's
// resolution rules). A malformed, missing or non-positive N, or a malformed
// SDB_THREADS, is a usage error (exit 2), never a silently different worker
// count. Unknown flags are ignored so every bench keeps accepting its other
// arguments.
inline int ParseJobs(int argc, char** argv) {
  if (Status threads = ThreadPool::ValidateThreadsEnv(); !threads.ok()) {
    std::cerr << "bench: " << threads.message() << "\n";
    std::exit(2);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0) {
      continue;
    }
    const char* text = i + 1 < argc ? argv[i + 1] : "";
    char* end = nullptr;
    errno = 0;
    const long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || n <= 0 ||
        n > std::numeric_limits<int>::max()) {
      std::cerr << "bench: --jobs wants a positive integer, got '" << text << "'\n";
      std::exit(2);
    }
    return static_cast<int>(n);
  }
  return ThreadPool::DefaultThreadCount();
}

// ParallelFor that also lands in the "sdb.sweep.*" metrics, so bench sweeps
// show up in the engine line alongside RunMonteCarlo's own records.
inline void SweepParallelFor(ThreadPool* pool, int64_t n,
                             const std::function<void(int64_t)>& fn) {
  obs::Stopwatch stopwatch;
  Duration wait_before = pool != nullptr ? pool->stats().worker_wait : Seconds(0.0);
  ParallelFor(pool, n, fn);
  Duration wait_after = pool != nullptr ? pool->stats().worker_wait : Seconds(0.0);
  RecordSweep(static_cast<uint64_t>(n), static_cast<uint64_t>(n), wait_after - wait_before,
              Seconds(stopwatch.ElapsedSeconds()));
}

// Dumps the engine counters accumulated so far (tasks, pool wait, wall
// clock) so sweep speedups show up in the bench output itself.
inline void PrintSweepTelemetry(std::ostream& os, int jobs) {
  // A local copy, so operator[] reads 0 for metrics no sweep registered yet.
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  os << "  sweep engine: " << jobs << " jobs, " << snap.counters["sdb.sweep.sweeps"]
     << " sweeps, " << snap.counters["sdb.sweep.runs_executed"] << " runs in "
     << snap.counters["sdb.sweep.tasks_executed"] << " shard tasks; wall "
     << TextTable::Num(snap.gauges["sdb.sweep.wall_s"], 2) << " s, worker wait "
     << TextTable::Num(snap.gauges["sdb.sweep.worker_wait_s"], 2) << " s\n";
}

// `--metrics-out PATH` flag: where to dump the process-wide metrics
// registry as JSON when the bench exits (empty = don't).
inline std::string ParseMetricsOut(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0) {
      return argv[i + 1];
    }
  }
  return "";
}

// Writes MetricsRegistry::Global() as JSON; no-op on an empty path. Call at
// the end of main so the snapshot covers the whole bench.
inline int WriteMetricsJson(const std::string& path) {
  if (path.empty()) {
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write metrics to " << path << "\n";
    return 1;
  }
  out << obs::MetricsRegistry::Global().ToJson() << "\n";
  std::cout << "  metrics written to " << path << "\n";
  return 0;
}

}  // namespace bench
}  // namespace sdb

#endif  // BENCH_BENCH_COMMON_H_
