// Scenario-pack sweep: one capped run per registered pack (ROADMAP item 5),
// plus an expansion-throughput measurement for the fuzz loop, whose cost per
// case is one expansion + one sim. Packs are independent simulations, so
// they run on a shared pool (--jobs N / SDB_THREADS); rows are collected in
// registry order so the table (and the BENCH json) stays byte-stable.
//
// Defaults stay smoke-fast: every pack's load is clipped to --cap-min
// simulated minutes (30 by default) so the ctest smoke finishes in seconds
// while `--cap-min 1440` reproduces the full-day figures.
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/emu/scenario_pack.h"
#include "src/emu/trace_io.h"
#include "src/util/thread_pool.h"

namespace {

using namespace sdb;

struct PackRun {
  std::string name;
  size_t cells = 0;
  double envelope_w = 0.0;
  double served_h = 0.0;   // Lifetime inside the cap (shortfall or elapsed).
  double loss_j = 0.0;
  double delivered_j = 0.0;
};

// Clips the spec's load (and horizon) to `cap` so full-week packs still
// finish inside a smoke-test budget. Partial segments are split exactly, so
// the clipped trace's energy is the prefix integral of the original.
ScenarioSpec ClipScenario(ScenarioSpec spec, Duration cap) {
  PowerTrace clipped;
  Duration acc = Seconds(0.0);
  const std::vector<TraceSegment>& segments = spec.load.segments();
  for (size_t i = 0; i < segments.size(); ++i) {
    Duration remaining = cap - acc;
    if (remaining.value() <= 0.0) {
      break;
    }
    Duration length = spec.load.SegmentEnd(i) - segments[i].start;
    Duration take = length.value() <= remaining.value() ? length : remaining;
    clipped.Append(take, segments[i].power);
    acc = acc + take;
  }
  spec.load = clipped;
  if (spec.sim.max_duration.value() > cap.value()) {
    spec.sim.max_duration = cap;
  }
  return spec;
}

PackRun RunOnePack(const ScenarioPack& pack, Duration cap, uint64_t seed) {
  ScenarioSpec spec = ClipScenario(ExpandScenario(pack.name, {}, seed).value(), cap);
  SimResult result = RunScenario(spec);
  PackRun run;
  run.name = pack.name;
  run.cells = spec.batteries.size();
  run.envelope_w = spec.envelope.value();
  run.served_h = result.first_shortfall.has_value() ? ToHours(*result.first_shortfall)
                                                    : ToHours(result.elapsed);
  run.loss_j = result.TotalLoss().value();
  run.delivered_j = result.delivered.value();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = sdb::bench::ParseJobs(argc, argv);
  int reps = sdb::bench::ParseIntFlag(argc, argv, "reps", 3);
  int cap_min = sdb::bench::ParseIntFlag(argc, argv, "cap-min", 30);
  const Duration cap = Minutes(static_cast<double>(cap_min));
  const uint64_t kSeed = 2026;

  const std::vector<ScenarioPack>& packs = ScenarioPacks();
  const int64_t n = static_cast<int64_t>(packs.size());

  // Expansion throughput: the fuzzer pays one expansion per sampled case, so
  // this is the fixed overhead in every fuzz case's budget. Min-of-reps over
  // a full registry sweep; the CSV format forces the trace to materialize.
  size_t trace_bytes = 0;
  double expand_wall_s = sdb::bench::MinOfReps(reps, [&] {
    obs::Stopwatch stopwatch;
    trace_bytes = 0;
    for (const ScenarioPack& pack : packs) {
      ScenarioSpec spec = ExpandScenario(pack.name, {}, kSeed).value();
      trace_bytes += FormatPowerTraceCsv(spec.load).size();
    }
    return stopwatch.ElapsedSeconds();
  });
  double expansions_per_s = expand_wall_s > 0.0 ? static_cast<double>(n) / expand_wall_s : 0.0;

  PrintBanner(std::cout, "Scenario packs: capped run per registered family");
  std::vector<PackRun> runs(packs.size());
  ThreadPool pool(jobs);
  sdb::obs::Stopwatch stopwatch;
  sdb::bench::SweepParallelFor(&pool, n, [&](int64_t i) {
    runs[static_cast<size_t>(i)] = RunOnePack(packs[static_cast<size_t>(i)], cap, kSeed);
  });
  double sweep_wall_s = stopwatch.ElapsedSeconds();

  TextTable table({"pack", "cells", "envelope (W)", "served (h)", "delivered (kJ)",
                   "losses (J)"});
  for (const PackRun& run : runs) {
    table.AddRow({run.name, TextTable::Num(static_cast<double>(run.cells), 0),
                  TextTable::Num(run.envelope_w, 2), TextTable::Num(run.served_h, 3),
                  TextTable::Num(run.delivered_j / 1000.0, 3),
                  TextTable::Num(run.loss_j, 1)});
  }
  table.Print(std::cout);
  sdb::bench::PrintSweepTelemetry(std::cout, jobs);
  sdb::bench::PrintNote(
      "every registered pack expands and serves its load inside the cap (" +
      std::to_string(cap_min) + " min); expansion costs ~" +
      TextTable::Num(1e3 * expand_wall_s / static_cast<double>(n), 3) +
      " ms per pack, the fixed overhead of each fuzz case.");

  sdb::bench::BenchReport report;
  report.bench = "scenario_packs";
  report.git_sha = sdb::bench::GitShaFromEnv();
  report.jobs = jobs;
  report.runs = static_cast<int>(n);
  report.reps = reps;
  report.wall_s = sweep_wall_s;
  report.AddMetric("expansions_per_s", expansions_per_s);
  report.AddMetric("trace_csv_bytes", static_cast<double>(trace_bytes));
  for (const PackRun& run : runs) {
    report.AddMetric(run.name + "_served_h", run.served_h);
    report.AddMetric(run.name + "_loss_j", run.loss_j);
  }
  sdb::Status wrote = sdb::bench::WriteBenchReport(report, sdb::bench::ParseBenchOut(argc, argv));
  if (!wrote.ok()) {
    std::cerr << wrote.message() << "\n";
    return 1;
  }
  return sdb::bench::WriteMetricsJson(sdb::bench::ParseMetricsOut(argc, argv));
}
