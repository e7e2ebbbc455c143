#include "src/core/runtime.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/core/checkpoint/rig_codec.h"
#include "src/emu/simulator.h"
#include "src/hw/command_link.h"
#include "src/hw/safety.h"
#include "src/util/rng.h"

namespace sdb {
namespace {

SdbMicrocontroller MakeMicro(double soc0 = 1.0, double soc1 = 1.0) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), soc0);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), soc1);
  return MakeDefaultMicrocontroller(std::move(cells), 17);
}

TEST(RuntimeTest, UpdateProgramsRatios) {
  SdbMicrocontroller micro = MakeMicro();
  SdbRuntime runtime(&micro);
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  double sum = std::accumulate(runtime.last_discharge_ratios().begin(),
                               runtime.last_discharge_ratios().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(micro.discharge_ratios(), runtime.last_discharge_ratios());
}

// The policy is stable under constant load: on a 2-battery, 6 W half-hour
// run no battery's discharge ratio swings by 0.5 or more between
// consecutive replans. The post-allocate barrier fires once per replan.
TEST(RuntimeTest, DischargeRatiosStayStableAcrossReplansUnderConstantLoad) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 1.0);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), 5);
  SdbRuntime runtime(&micro);

  std::vector<std::vector<double>> replans;
  SimConfig sim_config;
  sim_config.tick = Seconds(5.0);
  sim_config.runtime_period = Minutes(1.0);
  sim_config.on_barrier = [&](CrashBarrier barrier, Duration) {
    if (barrier == CrashBarrier::kPostAllocate) {
      replans.push_back(runtime.last_discharge_ratios());
    }
    return true;
  };
  Simulator sim(&runtime, sim_config);
  sim.Run(PowerTrace::Constant(Watts(6.0), Minutes(30.0)));

  // One replan per minute of the 30-minute run.
  EXPECT_NEAR(replans.size(), 30, 2);
  double swing = 0.0;
  for (size_t i = 1; i < replans.size(); ++i) {
    ASSERT_EQ(replans[i].size(), 2u);
    ASSERT_EQ(replans[i - 1].size(), 2u);
    for (size_t b = 0; b < 2; ++b) {
      swing = std::max(swing, std::fabs(replans[i][b] - replans[i - 1][b]));
    }
  }
  EXPECT_LT(swing, 0.5);
}

TEST(RuntimeTest, ViewsReflectGaugeState) {
  SdbMicrocontroller micro = MakeMicro(0.7, 0.4);
  SdbRuntime runtime(&micro);
  BatteryViews views = runtime.BuildViews();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_NEAR(views[0].soc, 0.7, 0.02);
  EXPECT_NEAR(views[1].soc, 0.4, 0.02);
  EXPECT_GT(views[0].ocv.value(), 3.0);
  EXPECT_GT(views[0].dcir.value(), 0.0);
  EXPECT_GT(views[0].max_discharge.value(), 0.0);
}

TEST(RuntimeTest, ChargeAcceptanceTapersAboveEighty) {
  SdbMicrocontroller micro = MakeMicro(0.9, 0.5);
  SdbRuntime runtime(&micro);
  BatteryViews views = runtime.BuildViews();
  EXPECT_LT(views[0].max_charge.value(), micro.pack().cell(0).params().max_charge_current.value());
  EXPECT_NEAR(views[1].max_charge.value(), micro.pack().cell(1).params().max_charge_current.value(),
              1e-6);
}

TEST(RuntimeTest, DirectivesSteerTheBlend) {
  SdbMicrocontroller micro = MakeMicro();
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);  // Pure RBL.
  ASSERT_TRUE(runtime.Update(Watts(6.0), Watts(0.0)).ok());
  auto rbl_ratios = runtime.last_discharge_ratios();

  runtime.SetDischargingDirective(0.0);  // Pure CCB (balanced wear -> even).
  ASSERT_TRUE(runtime.Update(Watts(6.0), Watts(0.0)).ok());
  auto ccb_ratios = runtime.last_discharge_ratios();

  EXPECT_NEAR(ccb_ratios[0], 0.5, 1e-6);
  // RBL favours the lower-resistance fast-charge battery.
  EXPECT_GT(rbl_ratios[0], 0.55);
}

TEST(RuntimeTest, DirectivesClampToUnitInterval) {
  SdbMicrocontroller micro = MakeMicro();
  SdbRuntime runtime(&micro);
  runtime.SetDirectives({.charging = 5.0, .discharging = -2.0});
  EXPECT_DOUBLE_EQ(runtime.directives().charging, 1.0);
  EXPECT_DOUBLE_EQ(runtime.directives().discharging, 0.0);
}

TEST(RuntimeTest, MetricsExposedAfterUpdate) {
  SdbMicrocontroller micro = MakeMicro();
  SdbRuntime runtime(&micro);
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  EXPECT_GE(runtime.LastCcb(), 1.0);
  EXPECT_GT(runtime.LastRbl().value(), 0.0);
}

TEST(RuntimeTest, WorkloadHintCountsDown) {
  SdbMicrocontroller micro = MakeMicro();
  SdbRuntime runtime(&micro);
  runtime.SetWorkloadHint(WorkloadHint{Hours(1.0), Watts(5.0), Minutes(30.0)});
  runtime.AdvanceTime(Minutes(30.0));
  ASSERT_TRUE(runtime.workload_hint().has_value());
  EXPECT_NEAR(ToHours(runtime.workload_hint()->time_until), 0.5, 1e-9);
  // After the whole window passes the hint clears.
  runtime.AdvanceTime(Hours(1.01));
  EXPECT_FALSE(runtime.workload_hint().has_value());
}

TEST(RuntimeTest, HintShiftsDischargeAwayFromReservedBattery) {
  std::vector<Cell> cells;
  // Battery 0: efficient watch Li-ion; battery 1: lossy bendable.
  cells.emplace_back(MakeWatchLiIon(MilliAmpHours(200.0)), 0.6);
  cells.emplace_back(MakeType4Bendable(MilliAmpHours(200.0)), 0.9);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), 3);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);

  ASSERT_TRUE(runtime.Update(Watts(0.05), Watts(0.0)).ok());
  double share_before = runtime.last_discharge_ratios()[0];

  runtime.SetWorkloadHint(WorkloadHint{Hours(3.0), Watts(0.8), Hours(1.0)});
  ASSERT_TRUE(runtime.Update(Watts(0.05), Watts(0.0)).ok());
  double share_after = runtime.last_discharge_ratios()[0];
  EXPECT_LT(share_after, share_before);
}

TEST(RuntimeTest, TransferPassthrough) {
  SdbMicrocontroller micro = MakeMicro(1.0, 0.3);
  SdbRuntime runtime(&micro);
  ASSERT_TRUE(runtime.RequestTransfer(0, 1, Watts(5.0), Minutes(1.0)).ok());
  EXPECT_TRUE(micro.transfer_active());
}

TEST(RuntimeTest, ChargeRatiosFavourAcceptance) {
  SdbMicrocontroller micro = MakeMicro(0.2, 0.2);
  SdbRuntime runtime(&micro);
  runtime.SetChargingDirective(1.0);  // RBL-Charge.
  ASSERT_TRUE(runtime.Update(Watts(0.0), Watts(40.0)).ok());
  // The 3C fast-charge battery takes the bigger slice.
  EXPECT_GT(runtime.last_charge_ratios()[0], runtime.last_charge_ratios()[1]);
}

// --- Fault resilience: retries, stale status, degraded mode ---------------

// A link whose transport can be switched between healthy passthrough and
// dropping everything (the client sees "no response frame").
struct FlakyLink {
  explicit FlakyLink(SdbMicrocontroller* micro)
      : server(micro),
        client([this](const std::vector<uint8_t>& bytes) -> std::vector<uint8_t> {
          ++roundtrips;
          if (fail_all || fail_next > 0) {
            if (fail_next > 0) {
              --fail_next;
            }
            return {};
          }
          return server.Receive(bytes);
        }) {}

  CommandLinkServer server;
  CommandLinkClient client;
  bool fail_all = false;
  int fail_next = 0;
  int roundtrips = 0;
};

// Regression: a failed QueryBatteryStatus used to be silently ignored; with
// no cached status there is nothing to plan from and Update must say so.
TEST(RuntimeResilienceTest, LinkErrorPropagatesWhenNoCachedStatus) {
  SdbMicrocontroller micro = MakeMicro();
  SdbRuntime runtime(&micro);
  FlakyLink link(&micro);
  link.fail_all = true;
  runtime.AttachLink(&link.client);

  Status status = runtime.Update(Watts(5.0), Watts(0.0));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(runtime.resilience().link_failures, 1u);
  // The query was attempted 1 + link_retries times before giving up.
  EXPECT_EQ(link.roundtrips, 1 + RuntimeConfig{}.link_retries);
}

TEST(RuntimeResilienceTest, RetriesMaskATransientFailure) {
  SdbMicrocontroller micro = MakeMicro();
  SdbRuntime runtime(&micro);
  FlakyLink link(&micro);
  runtime.AttachLink(&link.client);

  link.fail_next = 2;  // First query and first retry fail; second retry works.
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  const ResilienceCounters& res = runtime.resilience();
  EXPECT_EQ(res.link_retries, 2u);
  EXPECT_EQ(res.link_failures, 0u);
  EXPECT_EQ(res.stale_updates, 0u);
  // Doubling backoff from the default base: 10ms + 20ms.
  EXPECT_NEAR(res.backoff_total.value(), 0.03, 1e-9);
  // The recovered query still programmed valid ratios.
  double sum = std::accumulate(runtime.last_discharge_ratios().begin(),
                               runtime.last_discharge_ratios().end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RuntimeResilienceTest, StaleStatusServesFromCacheThenDegrades) {
  SdbMicrocontroller micro = MakeMicro(0.8, 0.8);
  RuntimeConfig config;
  config.stale_updates_tolerated = 2;
  SdbRuntime runtime(&micro, config);
  FlakyLink link(&micro);
  runtime.AttachLink(&link.client);

  // One healthy update seeds the cache. Capture what the link actually
  // programmed (the wire encoding quantises, so compare against the
  // microcontroller's own copy).
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  auto healthy_ratios = micro.discharge_ratios();

  // The link goes down: updates keep succeeding from the cached status.
  link.fail_all = true;
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
    EXPECT_FALSE(runtime.degraded());
  }
  // A third stale update crosses the tolerance: degraded mode.
  EXPECT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  EXPECT_TRUE(runtime.degraded());
  const ResilienceCounters& res = runtime.resilience();
  EXPECT_EQ(res.stale_updates, 3u);
  EXPECT_EQ(res.degraded_entries, 1u);
  // Failed setter roundtrips kept the last healthy ratios programmed.
  EXPECT_EQ(micro.discharge_ratios(), healthy_ratios);

  // The link comes back: fresh status, degraded mode exits.
  link.fail_all = false;
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  EXPECT_FALSE(runtime.degraded());
  EXPECT_EQ(runtime.resilience().degraded_exits, 1u);
}

TEST(RuntimeResilienceTest, SafetyFaultedBatteryIsExcludedFromTheSplit) {
  SdbMicrocontroller micro = MakeMicro(0.8, 0.8);
  std::vector<SafetyLimits> limits = {DeriveLimits(micro.pack().cell(0).params()),
                                      DeriveLimits(micro.pack().cell(1).params())};
  SafetySupervisor safety(limits);
  micro.AttachSafety(&safety);
  SdbRuntime runtime(&micro);

  // Trip battery 0 thermally; the supervisor latches on the next step.
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(70.0));
  micro.Step(Watts(5.0), Watts(0.0), Seconds(1.0));
  ASSERT_TRUE(safety.IsFaulted(0));

  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  EXPECT_TRUE(runtime.degraded());
  ASSERT_EQ(runtime.excluded_batteries().size(), 2u);
  EXPECT_TRUE(runtime.excluded_batteries()[0]);
  EXPECT_FALSE(runtime.excluded_batteries()[1]);
  EXPECT_DOUBLE_EQ(runtime.last_discharge_ratios()[0], 0.0);
  EXPECT_NEAR(runtime.last_discharge_ratios()[1], 1.0, 1e-9);
  EXPECT_GE(runtime.resilience().masked_faults, 1u);
  EXPECT_EQ(runtime.resilience().degraded_entries, 1u);
}

TEST(RuntimeResilienceTest, ReintegrationRampsShareOverHorizon) {
  SdbMicrocontroller micro = MakeMicro(0.8, 0.8);
  std::vector<SafetyLimits> limits = {DeriveLimits(micro.pack().cell(0).params()),
                                      DeriveLimits(micro.pack().cell(1).params())};
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.base_dwell = Seconds(30.0);
  recovery.probe_duration = Seconds(10.0);
  SafetySupervisor safety(limits, recovery);
  micro.AttachSafety(&safety);
  RuntimeConfig config;
  config.reintegration_horizon = Seconds(100.0);
  SdbRuntime runtime(&micro, config);

  // Trip battery 0 thermally, then quarantine it.
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(70.0));
  micro.Step(Watts(5.0), Watts(0.0), Seconds(1.0));
  ASSERT_TRUE(safety.IsFaulted(0));
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  EXPECT_EQ(runtime.resilience().quarantines, 1u);
  EXPECT_DOUBLE_EQ(runtime.last_discharge_ratios()[0], 0.0);

  // Cool the cell and walk the supervisor through cool-down and probing.
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(25.0));
  for (int i = 0; i < 60 && safety.health(0) != BatteryHealth::kHealthy; ++i) {
    micro.Step(Watts(5.0), Watts(0.0), Seconds(1.0));
  }
  ASSERT_EQ(safety.health(0), BatteryHealth::kHealthy);

  // The battery rejoins at (near) zero share and ramps up over the horizon.
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  EXPECT_EQ(runtime.resilience().reintegrations, 1u);
  double early = runtime.last_discharge_ratios()[0];
  EXPECT_LT(early, 0.05);

  runtime.AdvanceTime(Seconds(50.0));
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  double mid = runtime.last_discharge_ratios()[0];
  EXPECT_GT(mid, early);

  runtime.AdvanceTime(Seconds(100.0));
  ASSERT_TRUE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
  ASSERT_EQ(runtime.reintegration_ramp().size(), 2u);
  EXPECT_DOUBLE_EQ(runtime.reintegration_ramp()[0], 1.0);
  EXPECT_GT(runtime.last_discharge_ratios()[0], 0.1);
  EXPECT_FALSE(runtime.degraded());
}

// ---------- The lazily computed RBL metric ----------

// The checkpoint's runtime section, with last_rbl computed eagerly from the
// views a direct-wired Update would build now (the gauges have not moved
// since the last Update).
std::vector<uint8_t> EagerRuntimeSection(const SdbRuntime& runtime, RuntimeState state,
                                         Power anticipated_load) {
  state.last_rbl = EstimateRbl(runtime.BuildViews(), anticipated_load);
  return checkpoint::EncodeRuntimeState(state);
}

TEST(RuntimeRblMemoTest, SavedStateMatchesEagerRblAfterEveryUpdate) {
  SdbMicrocontroller micro = MakeMicro(0.9, 0.5);
  RuntimeConfig config;
  config.anticipated_load = Watts(3.0);
  SdbRuntime runtime(&micro, config);
  Rng rng(23);
  for (int step = 0; step < 300; ++step) {
    const Power load = Watts(rng.Uniform(0.0, 12.0));
    const Power supply = Watts(rng.Bernoulli(0.3) ? rng.Uniform(0.0, 25.0) : 0.0);
    ASSERT_TRUE(runtime.Update(load, supply).ok());
    const RuntimeState state = runtime.SaveState();
    ASSERT_EQ(checkpoint::EncodeRuntimeState(state),
              EagerRuntimeSection(runtime, state, config.anticipated_load))
        << "step " << step;
    // Several ticks per replan, so the views differ from one Update to the
    // next.
    for (int tick = 0, ticks = 1 + static_cast<int>(rng.NextBounded(60)); tick < ticks; ++tick) {
      micro.Step(load, supply, Seconds(1.0));
    }
  }
}

TEST(RuntimeRblMemoTest, RestoredRblSurvivesDriftReconciliationUntilTheNextUpdate) {
  SdbMicrocontroller micro = MakeMicro(0.8, 0.6);
  SdbRuntime runtime(&micro);
  ASSERT_TRUE(runtime.Update(Watts(6.0), Watts(0.0)).ok());
  RuntimeState checkpointed = runtime.SaveState();
  // A value no view set produces, so a recomputation would show.
  const Energy sentinel = Joules(12345.678);
  checkpointed.last_rbl = sentinel;
  // The gauges move on after the checkpoint, so the restore reconciles
  // drift; a further Update leaves the runtime's memo stale over new views.
  for (int tick = 0; tick < 600; ++tick) {
    micro.Step(Watts(6.0), Watts(0.0), Seconds(1.0));
  }
  ASSERT_TRUE(runtime.Update(Watts(6.0), Watts(0.0)).ok());
  micro.Step(Watts(6.0), Watts(0.0), Seconds(1.0));

  StatusOr<RestoreReport> report = runtime.RestoreAndResync(checkpointed);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->drift_fields, 0u);
  EXPECT_EQ(runtime.SaveState().last_statuses.size(), 2u);
  EXPECT_EQ(runtime.LastRbl().value(), sentinel.value());
  EXPECT_EQ(runtime.SaveState().last_rbl.value(), sentinel.value());

  ASSERT_TRUE(runtime.Update(Watts(6.0), Watts(0.0)).ok());
  EXPECT_EQ(runtime.LastRbl().value(),
            EstimateRbl(runtime.BuildViews(), RuntimeConfig{}.anticipated_load).value());
}

TEST(RuntimeRblMemoTest, EarlyReturningUpdatesLeaveTheEagerValue) {
  // A status query that fails with nothing cached returns before any views
  // exist: the metric keeps its initial value.
  {
    SdbMicrocontroller micro = MakeMicro();
    SdbRuntime runtime(&micro);
    FlakyLink link(&micro);
    link.fail_all = true;
    runtime.AttachLink(&link.client);
    const Energy initial = runtime.LastRbl();
    ASSERT_FALSE(runtime.Update(Watts(5.0), Watts(0.0)).ok());
    EXPECT_EQ(runtime.LastRbl().value(), initial.value());
  }
  // A controller held in reset refuses the ratios after the views are built:
  // the metric is the one over that Update's views, not the previous one's.
  SdbMicrocontroller micro = MakeMicro(0.9, 0.7);
  SdbRuntime runtime(&micro);
  ASSERT_TRUE(runtime.Update(Watts(8.0), Watts(0.0)).ok());
  const Energy before = EstimateRbl(runtime.BuildViews(), RuntimeConfig{}.anticipated_load);
  // Read it, so a refused Update that left the memo fresh would show.
  ASSERT_EQ(runtime.LastRbl().value(), before.value());
  for (int tick = 0; tick < 900; ++tick) {
    micro.Step(Watts(8.0), Watts(0.0), Seconds(1.0));
  }
  MicroState held = micro.SaveState();
  held.in_reset = true;
  held.awaiting_resync = true;
  ASSERT_TRUE(micro.RestoreState(held).ok());
  const Status refused = runtime.Update(Watts(8.0), Watts(0.0));
  ASSERT_EQ(refused.code(), StatusCode::kUnavailable);
  const Energy eager = EstimateRbl(runtime.BuildViews(), RuntimeConfig{}.anticipated_load);
  EXPECT_NE(eager.value(), before.value());
  EXPECT_EQ(runtime.LastRbl().value(), eager.value());
}

}  // namespace
}  // namespace sdb
