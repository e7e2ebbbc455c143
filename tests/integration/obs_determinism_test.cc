// The observability determinism contract (DESIGN.md §8): tracing draws no
// RNG and mutates no simulation state, so enabling the tracer — or running
// with it compiled out — changes not a single bit of any simulated result.
// Exact (==) double comparisons throughout are deliberate.
//
// Also pins the registry metrics: RunMonteCarlo's "sdb.sweep.*" metrics
// count the sweep, and the "sdb.runtime.*" metrics agree with the
// per-runtime ResilienceCounters.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/chem/library.h"
#include "src/core/runtime.h"
#include "src/emu/monte_carlo.h"
#include "src/emu/simulator.h"
#include "src/emu/workload.h"
#include "src/hw/fault.h"
#include "src/hw/microcontroller.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sdb {
namespace {

// A cheap but non-trivial smartwatch run; `faulted` layers on the fault
// schedule so the degraded-mode paths (masking, stale planning) execute too.
SimResult RunWatchScenario(bool faulted) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeWatchLiIon(MilliAmpHours(120.0)), 1.0);
  cells.emplace_back(MakeType4Bendable(MilliAmpHours(120.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), /*seed=*/21);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);
  SimConfig config;
  config.tick = Seconds(30.0);
  config.runtime_period = Minutes(10.0);
  config.stop_on_shortfall = false;
  if (faulted) {
    config.faults.seed = 21;
    config.faults
        .Add(FaultEvent{.kind = FaultClass::kGaugeNoise,
                        .start = Minutes(20.0),
                        .end = Hours(3.0),
                        .battery = 0,
                        .magnitude = 15.0})
        .Add(FaultEvent{.kind = FaultClass::kOpenCircuit,
                        .start = Hours(1.0),
                        .end = Hours(2.0),
                        .battery = 1});
  }
  Simulator sim(&runtime, config);
  PowerTrace load =
      MakeBurstyTrace(Watts(0.08), Watts(0.6), 0.25, Hours(4.0), Minutes(5.0), /*seed=*/21);
  return sim.Run(load);
}

void ExpectBitIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.elapsed.value(), b.elapsed.value());
  EXPECT_EQ(a.delivered.value(), b.delivered.value());
  EXPECT_EQ(a.charged.value(), b.charged.value());
  EXPECT_EQ(a.battery_loss.value(), b.battery_loss.value());
  EXPECT_EQ(a.circuit_loss.value(), b.circuit_loss.value());
  EXPECT_EQ(a.first_shortfall.has_value(), b.first_shortfall.has_value());
  if (a.first_shortfall.has_value() && b.first_shortfall.has_value()) {
    EXPECT_EQ(a.first_shortfall->value(), b.first_shortfall->value());
  }
  ASSERT_EQ(a.final_soc.size(), b.final_soc.size());
  for (size_t i = 0; i < a.final_soc.size(); ++i) {
    EXPECT_EQ(a.final_soc[i], b.final_soc[i]);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.hourly.size(), b.hourly.size());
  for (size_t h = 0; h < a.hourly.size(); ++h) {
    EXPECT_EQ(a.hourly[h].load_energy.value(), b.hourly[h].load_energy.value());
    EXPECT_EQ(a.hourly[h].degraded, b.hourly[h].degraded);
    EXPECT_EQ(a.hourly[h].link_retries, b.hourly[h].link_retries);
    EXPECT_EQ(a.hourly[h].stale_updates, b.hourly[h].stale_updates);
  }
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Tracer::Global().SetEnabled(false);
    obs::Tracer::Global().Clear();
  }
};

TEST_F(ObsDeterminismTest, TracingOnOffIsBitIdentical) {
  obs::Tracer::Global().SetEnabled(false);
  SimResult off = RunWatchScenario(/*faulted=*/false);

  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  SimResult on = RunWatchScenario(/*faulted=*/false);
  obs::Tracer::Global().SetEnabled(false);

#if SDB_TRACING
  // The traced run actually recorded spans — this test must not pass
  // vacuously in the default build.
  EXPECT_GT(obs::Tracer::Global().recorded(), 0u);
#endif
  ExpectBitIdentical(off, on);
}

TEST_F(ObsDeterminismTest, TracingOnOffIsBitIdenticalUnderFaults) {
  obs::Tracer::Global().SetEnabled(false);
  SimResult off = RunWatchScenario(/*faulted=*/true);

  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  SimResult on = RunWatchScenario(/*faulted=*/true);
  obs::Tracer::Global().SetEnabled(false);

  ExpectBitIdentical(off, on);
}

TEST_F(ObsDeterminismTest, JournalOnOffIsBitIdentical) {
  SimResult off = RunWatchScenario(/*faulted=*/false);

  obs::EventJournal journal;
  SimResult on = [&journal] {
    obs::JournalScope scope(&journal);
    return RunWatchScenario(/*faulted=*/false);
  }();

#if SDB_JOURNAL
  // The journaled run actually recorded events — this test must not pass
  // vacuously in the default build.
  EXPECT_GT(journal.recorded(), 0u);
#endif
  ExpectBitIdentical(off, on);
}

TEST_F(ObsDeterminismTest, JournalOnOffIsBitIdenticalUnderFaults) {
  SimResult off = RunWatchScenario(/*faulted=*/true);

  obs::EventJournal first;
  SimResult on = [&first] {
    obs::JournalScope scope(&first);
    return RunWatchScenario(/*faulted=*/true);
  }();
  ExpectBitIdentical(off, on);

  // The captured event sequence itself is deterministic: a second journaled
  // run serializes to the same bytes, event for event — the property the
  // post-mortem bundle diff-across-jobs contract rests on.
  obs::EventJournal second;
  {
    obs::JournalScope scope(&second);
    (void)RunWatchScenario(/*faulted=*/true);
  }
  std::vector<obs::JournalEvent> a = first.Snapshot();
  std::vector<obs::JournalEvent> b = second.Snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(obs::EventToJsonl(a[i]), obs::EventToJsonl(b[i]));
  }
#if SDB_JOURNAL
  // The faulted scenario exercises the taxonomy beyond generic sim events.
  bool saw_fault = false;
  for (const obs::JournalEvent& event : a) {
    if (event.kind == obs::EventKind::kFaultInjected) {
      saw_fault = true;
    }
  }
  EXPECT_TRUE(saw_fault);
#endif
}

TEST_F(ObsDeterminismTest, SweepRegistryMetricsMatchLegacyCounters) {
  obs::MetricsRegistry::Global().ResetForTest();
  ScenarioFn scenario = [](uint64_t seed) {
    (void)seed;
    return RunWatchScenario(/*faulted=*/false);
  };
  (void)RunMonteCarlo(scenario, /*runs=*/6, /*base_seed=*/500);

  obs::MetricsSnapshot registry = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(registry.counters.at("sdb.sweep.sweeps"), 1u);
  EXPECT_EQ(registry.counters.at("sdb.sweep.runs_executed"), 6u);
  EXPECT_EQ(registry.counters.at("sdb.sweep.tasks_executed"),
            static_cast<uint64_t>((6 + kMonteCarloShardSize - 1) / kMonteCarloShardSize));
  EXPECT_GT(registry.gauges.at("sdb.sweep.wall_s"), 0.0);
  // A serial sweep never waits on a pool.
  EXPECT_DOUBLE_EQ(registry.gauges.at("sdb.sweep.worker_wait_s"), 0.0);
  // Each run lands in the battery-life distribution histogram.
  EXPECT_EQ(registry.histograms.at("sdb.mc.battery_life_h").count, 6u);
}

TEST_F(ObsDeterminismTest, RuntimeRegistryMetricsMirrorResilienceCounters) {
  obs::MetricsRegistry::Global().ResetForTest();
  std::vector<Cell> cells;
  cells.emplace_back(MakeWatchLiIon(MilliAmpHours(120.0)), 1.0);
  cells.emplace_back(MakeType4Bendable(MilliAmpHours(120.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), /*seed=*/23);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);
  SimConfig config;
  config.tick = Seconds(30.0);
  config.runtime_period = Minutes(10.0);
  config.stop_on_shortfall = false;
  config.faults.seed = 23;
  // A thermal-trip window reports temperatures past the derate cutoff,
  // which forces the runtime to mask the battery out of allocation.
  config.faults.Add(FaultEvent{.kind = FaultClass::kThermalTrip,
                               .start = Minutes(30.0),
                               .end = Hours(3.0),
                               .battery = 1,
                               .magnitude = Celsius(70.0).value()});
  Simulator sim(&runtime, config);
  (void)sim.Run(
      MakeBurstyTrace(Watts(0.08), Watts(0.6), 0.25, Hours(4.0), Minutes(5.0), /*seed=*/23));

  const ResilienceCounters& legacy = runtime.resilience();
  obs::MetricsSnapshot registry = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GT(legacy.masked_faults, 0u);  // The fault actually exercised masking.
  EXPECT_EQ(registry.counters.at("sdb.runtime.masked_faults"), legacy.masked_faults);
  EXPECT_EQ(registry.counters.at("sdb.runtime.stale_updates"), legacy.stale_updates);
  EXPECT_EQ(registry.counters.at("sdb.runtime.degraded_entries"), legacy.degraded_entries);
  EXPECT_EQ(registry.counters.at("sdb.runtime.degraded_exits"), legacy.degraded_exits);
  EXPECT_EQ(registry.counters.at("sdb.runtime.link_retries"), legacy.link_retries);
  EXPECT_EQ(registry.counters.at("sdb.runtime.link_failures"), legacy.link_failures);
}

}  // namespace
}  // namespace sdb
