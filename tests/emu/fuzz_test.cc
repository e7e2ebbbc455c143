#include "src/emu/fuzz.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runtime.h"
#include "src/emu/scenario_pack.h"
#include "src/emu/simulator.h"
#include "src/hw/microcontroller.h"
#include "src/util/check.h"

namespace sdb {
namespace {

FuzzConfig ShortConfig() {
  FuzzConfig config;
  config.cases = 6;
  config.horizon_cap = Minutes(10.0);
  return config;
}

// The checked-in known-bad: on the heterogeneous phone pack shrunk to
// 1000 mAh and a 3x load, a 0.05 discharging directive collapses the
// fault-free lifetime to seconds while the 0.9 panel policy serves the
// whole horizon. Any config with max_lifetime_loss_fraction = 0 flags it.
constexpr char kKnownBadLine[] =
    "pack=phone-day seed=5 dch=0.050000000000000003 chg=0.5 "
    "p:capacity_mah=1000 p:scale=3";

FuzzConfig StrictPolicyConfig() {
  FuzzConfig config;
  config.max_lifetime_loss_fraction = 0.0;
  config.horizon_cap = Hours(2.0);
  return config;
}

TEST(FuzzTest, SamplingIsDeterministic) {
  FuzzConfig config = ShortConfig();
  FuzzCase a = SampleFuzzCase(config, 17);
  FuzzCase b = SampleFuzzCase(config, 17);
  EXPECT_EQ(FormatFuzzCase(a), FormatFuzzCase(b));
  FuzzCase c = SampleFuzzCase(config, 18);
  EXPECT_NE(FormatFuzzCase(a), FormatFuzzCase(c));
}

TEST(FuzzTest, SamplingHonoursThePackFilter) {
  FuzzConfig config = ShortConfig();
  config.packs = {"ev-burst"};
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(SampleFuzzCase(config, seed).pack, "ev-burst");
  }
}

TEST(FuzzTest, SweepFingerprintIsJobsInvariant) {
  FuzzConfig config = ShortConfig();
  config.master_seed = 3;
  std::vector<uint64_t> fingerprints;
  for (int jobs : {1, 2, 8}) {
    config.jobs = jobs;
    auto report = RunFuzz(config);
    ASSERT_TRUE(report.ok()) << report.status().message();
    fingerprints.push_back(report->fingerprint);
    ASSERT_EQ(report->cases.size(), 6u);
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(FuzzTest, SweepRejectsBadConfigs) {
  FuzzConfig config = ShortConfig();
  config.cases = 0;
  EXPECT_FALSE(RunFuzz(config).ok());

  config = ShortConfig();
  config.packs = {"no-such-pack"};
  auto report = RunFuzz(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {-0.01, 1.01, nan}) {
    config = ShortConfig();
    config.fault_probability = bad;
    report = RunFuzz(config);
    ASSERT_FALSE(report.ok()) << "fault_probability " << bad;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(CheckFuzzSettings(config).code(), StatusCode::kInvalidArgument);

    config = ShortConfig();
    config.max_lifetime_loss_fraction = bad;
    report = RunFuzz(config);
    ASSERT_FALSE(report.ok()) << "max_lifetime_loss_fraction " << bad;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(CheckFuzzSettings(config).code(), StatusCode::kInvalidArgument);
  }
  for (double bad : {0.0, -60.0, nan}) {
    config = ShortConfig();
    config.horizon_cap = Seconds(bad);
    report = RunFuzz(config);
    ASSERT_FALSE(report.ok()) << "horizon_cap " << bad;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(CheckFuzzSettings(config).code(), StatusCode::kInvalidArgument);
  }

  // The closed ends of both [0, 1] ranges are valid settings.
  config = ShortConfig();
  config.fault_probability = 1.0;
  config.max_lifetime_loss_fraction = 0.0;
  EXPECT_TRUE(CheckFuzzSettings(config).ok());
  config.fault_probability = 0.0;
  config.max_lifetime_loss_fraction = 1.0;
  EXPECT_TRUE(CheckFuzzSettings(config).ok());
}

TEST(FuzzTest, ReproducerLinesRoundTripExactly) {
  FuzzConfig config = ShortConfig();
  // Sampled cases cover the full grammar (overrides, fault plans, %.17g
  // doubles); Parse(Format(c)) must reproduce the identical line.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    FuzzCase sampled = SampleFuzzCase(config, seed);
    std::string line = FormatFuzzCase(sampled);
    auto parsed = ParseFuzzCase(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().message();
    EXPECT_EQ(FormatFuzzCase(*parsed), line);
  }
}

TEST(FuzzTest, ReproducerSurvivesAwkwardDoubles) {
  FuzzCase awkward;
  awkward.pack = "ev-burst";
  awkward.seed = 12345678901234567ULL;
  awkward.directives.discharging = 0.1 + 0.2;  // 0.30000000000000004
  awkward.directives.charging = 1.0 / 3.0;
  awkward.overrides["cruise_w"] = 59.999999999999993;
  awkward.faults.seed = 42;
  awkward.faults.Add(FaultEvent{.kind = FaultClass::kGaugeBias,
                                .start = Seconds(100.125),
                                .end = Seconds(333.25),
                                .battery = 1,
                                .magnitude = 0.1 + 0.2,
                                .probability = 0.7});
  std::string line = FormatFuzzCase(awkward);
  auto parsed = ParseFuzzCase(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->directives.discharging, awkward.directives.discharging);
  EXPECT_EQ(parsed->overrides["cruise_w"], awkward.overrides["cruise_w"]);
  ASSERT_EQ(parsed->faults.events.size(), 1u);
  EXPECT_EQ(parsed->faults.events[0].magnitude, awkward.faults.events[0].magnitude);
  EXPECT_EQ(FormatFuzzCase(*parsed), line);
}

TEST(FuzzTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(ParseFuzzCase("").ok());
  EXPECT_FALSE(ParseFuzzCase("seed=1 dch=0.5 chg=0.5").ok());  // No pack.
  EXPECT_FALSE(ParseFuzzCase("pack=ev-burst seed=banana").ok());
  EXPECT_FALSE(ParseFuzzCase("pack=ev-burst seed=1 wat=1").ok());
  EXPECT_FALSE(
      ParseFuzzCase("pack=ev-burst seed=1 fault=not-a-kind:0:1:0:0:1").ok());
  EXPECT_FALSE(ParseFuzzCase("pack=ev-burst crash=pre-allocate:none").ok());
  EXPECT_FALSE(ParseFuzzCase("pack=ev-burst crash=nowhere:none:10").ok());
  EXPECT_FALSE(
      ParseFuzzCase("pack=ev-burst crash=pre-allocate:shredded:10").ok());
  EXPECT_FALSE(ParseFuzzCase("pack=ev-burst flip=10:0.5").ok());
  EXPECT_FALSE(ParseFuzzCase("pack=ev-burst flip=ten:0.5:0.5").ok());
}

// A hand-edited --replay line cannot smuggle in a value the sampler never
// draws: non-finite numbers, signed seeds, weights or probabilities outside
// [0, 1], a window that ends before it starts, or a battery that is not an
// integer >= -1.
TEST(FuzzTest, ParseRejectsOutOfRangeTokens) {
  const char* const kBad[] = {
      "pack=ev-burst seed=-1",                                // Signed seed (strtoull wraps).
      "pack=ev-burst seed=+1",                                // Signed seed.
      "pack=ev-burst seed=99999999999999999999",              // Seed past 2^64.
      "pack=ev-burst fseed=-1",                               // Signed fault seed.
      "pack=ev-burst dch=nan",                                // Non-finite.
      "pack=ev-burst p:cruise_w=inf",                         // Non-finite.
      "pack=ev-burst crash=pre-allocate:none:nan",            // Non-finite.
      "pack=ev-burst dch=1.5",                                // dch outside [0, 1].
      "pack=ev-burst chg=-0.1",                               // chg outside [0, 1].
      "pack=ev-burst flip=10:0.5:2",                          // flip chg outside [0, 1].
      "pack=ev-burst fault=gauge-bias:0:inf:0:0.1:1",         // Non-finite.
      "pack=ev-burst fault=gauge-bias:300:100:0:0.1:1",       // end < start.
      "pack=ev-burst fault=gauge-bias:0:100:0:0.1:1.5",       // Probability above 1.
      "pack=ev-burst fault=gauge-bias:0:100:0:0.1:-0.5",      // Probability below 0.
      "pack=ev-burst fault=gauge-bias:0:100:nan:0.1:1",       // Battery not an integer.
      "pack=ev-burst fault=gauge-bias:0:100:1e20:0.1:1",      // Battery past int.
      "pack=ev-burst fault=gauge-bias:0:100:1.5:0.1:1",       // Battery not an integer.
      "pack=ev-burst fault=gauge-bias:0:100:-2:0.1:1",        // Battery below -1.
  };
  for (const char* line : kBad) {
    EXPECT_FALSE(ParseFuzzCase(line).ok()) << line;
  }
  // The edges of each rule still parse.
  auto edges = ParseFuzzCase(
      "pack=ev-burst seed=18446744073709551615 dch=0 chg=1 fseed=0 "
      "fault=gauge-bias:100:100:-1:0.1:0 flip=10:1:0");
  ASSERT_TRUE(edges.ok()) << edges.status().message();
  EXPECT_EQ(edges->seed, 18446744073709551615ULL);
  ASSERT_EQ(edges->faults.events.size(), 1u);
  EXPECT_EQ(edges->faults.events[0].battery, -1);
}

TEST(FuzzTest, CrashAndFlipTokensRoundTrip) {
  FuzzCase fuzz_case;
  fuzz_case.pack = "fastcharge-tablet";
  fuzz_case.seed = 9;
  fuzz_case.crashes.push_back(CrashEvent{Seconds(120.5),
                                         CrashBarrier::kPreAllocate,
                                         TornWriteKind::kNone});
  fuzz_case.crashes.push_back(CrashEvent{Seconds(333.25),
                                         CrashBarrier::kMidCheckpointWrite,
                                         TornWriteKind::kTruncate});
  fuzz_case.flips.push_back(
      DirectiveFlip{Seconds(200.0), 0.1 + 0.2, 1.0 / 3.0});
  std::string line = FormatFuzzCase(fuzz_case);
  auto parsed = ParseFuzzCase(line);
  ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().message();
  ASSERT_EQ(parsed->crashes.size(), 2u);
  EXPECT_EQ(parsed->crashes[1].barrier, CrashBarrier::kMidCheckpointWrite);
  EXPECT_EQ(parsed->crashes[1].torn, TornWriteKind::kTruncate);
  ASSERT_EQ(parsed->flips.size(), 1u);
  EXPECT_EQ(parsed->flips[0].discharging, 0.1 + 0.2);
  EXPECT_EQ(parsed->flips[0].charging, 1.0 / 3.0);
  EXPECT_EQ(FormatFuzzCase(*parsed), line);
}

TEST(FuzzTest, OldReproducerLinesStillParse) {
  // Corpus lines written before the crash/flip dimensions existed carry no
  // crash=/flip= tokens and must keep replaying unchanged.
  auto parsed = ParseFuzzCase(
      "pack=phone-day seed=5 dch=0.05 chg=0.5 p:capacity_mah=1000 p:scale=3");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->crashes.empty());
  EXPECT_TRUE(parsed->flips.empty());
}

TEST(FuzzTest, SampledCrashSchedulesRoundTrip) {
  FuzzConfig config = ShortConfig();
  config.crash_probability = 1.0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FuzzCase sampled = SampleFuzzCase(config, seed);
    EXPECT_FALSE(sampled.crashes.empty());
    std::string line = FormatFuzzCase(sampled);
    auto parsed = ParseFuzzCase(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().message();
    EXPECT_EQ(FormatFuzzCase(*parsed), line);
  }
}

TEST(FuzzTest, CorpusRoundTripsWithCommentsAndBlanks) {
  FuzzConfig config = ShortConfig();
  std::vector<FuzzCase> cases = {SampleFuzzCase(config, 4),
                                 SampleFuzzCase(config, 5)};
  std::string corpus = "# header comment\n\n" +
                       FormatFuzzCorpus({FormatFuzzCase(cases[0]), FormatFuzzCase(cases[1])}) +
                       "\n";
  auto parsed = ParseFuzzCorpus(corpus);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->size(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(FormatFuzzCase((*parsed)[i]), FormatFuzzCase(cases[i]));
  }
  EXPECT_FALSE(ParseFuzzCorpus("pack=\n").ok());
}

TEST(FuzzTest, ShrinkerConvergesOnASyntheticPredicate) {
  // Failure depends only on the "keep_me" override; everything else is
  // noise the shrinker must strip.
  FuzzCase noisy;
  noisy.pack = "ev-burst";
  noisy.seed = 7;
  noisy.directives.discharging = 0.8;
  noisy.directives.charging = 0.2;
  noisy.overrides["keep_me"] = 1.0;
  noisy.overrides["drop_a"] = 2.0;
  noisy.overrides["drop_b"] = 3.0;
  noisy.faults.seed = 9;
  for (int i = 0; i < 3; ++i) {
    noisy.faults.Add(FaultEvent{.kind = FaultClass::kGaugeNoise,
                                .start = Seconds(10.0 * i),
                                .end = Seconds(10.0 * i + 5.0),
                                .battery = 0,
                                .magnitude = 2.0});
  }
  noisy.crashes.push_back(CrashEvent{Seconds(60.0), CrashBarrier::kPostAllocate,
                                     TornWriteKind::kNone});
  noisy.flips.push_back(DirectiveFlip{Seconds(90.0), 0.3, 0.7});
  auto fails = [](const FuzzCase& c) {
    return c.overrides.count("keep_me") > 0;
  };
  int steps = 0;
  FuzzCase minimal = ShrinkFuzzCaseWith(noisy, fails, /*budget=*/64, &steps);
  EXPECT_TRUE(fails(minimal));
  EXPECT_TRUE(minimal.faults.empty());
  EXPECT_TRUE(minimal.crashes.empty());
  EXPECT_TRUE(minimal.flips.empty());
  EXPECT_EQ(minimal.overrides.size(), 1u);
  EXPECT_EQ(minimal.overrides.count("keep_me"), 1u);
  EXPECT_EQ(minimal.directives.discharging, 0.5);
  EXPECT_EQ(minimal.directives.charging, 0.5);
  // 3 fault events + 1 crash + 1 flip + 2 overrides + 2 directive snaps.
  EXPECT_GE(steps, 9);
}

TEST(FuzzTest, ShrinkerRespectsTheBudget) {
  FuzzCase noisy;
  noisy.pack = "ev-burst";
  for (int i = 0; i < 3; ++i) {
    noisy.overrides["knob_" + std::to_string(i)] = 1.0;
  }
  int evals = 0;
  auto fails = [&](const FuzzCase&) {
    ++evals;
    return true;
  };
  (void)ShrinkFuzzCaseWith(noisy, fails, /*budget=*/2, nullptr);
  EXPECT_LE(evals, 2);
}

TEST(FuzzTest, CleanCaseHasNoViolations) {
  FuzzConfig config = ShortConfig();
  auto parsed = ParseFuzzCase("pack=ambient-sensor-nimh seed=4 dch=0.5 chg=0.5");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(EvaluateFuzzCase(*parsed, config).empty());
}

TEST(FuzzTest, CrashEquivalenceOracleHoldsThroughDeathsAndTornWrites) {
  // A case with a mid-run directive flip, a post-allocate death and a
  // mid-checkpoint-write death that bit-flips the image: the crash twin
  // must warm-restart (falling back past the torn slot) and still finish
  // bit-identical to the never-crashed run — and do so deterministically.
  FuzzConfig config;
  config.horizon_cap = Hours(1.0);
  FuzzCase fuzz_case;
  fuzz_case.pack = "fastcharge-tablet";
  fuzz_case.seed = 11;
  fuzz_case.directives.discharging = 0.6;
  fuzz_case.directives.charging = 0.4;
  fuzz_case.crashes.push_back(CrashEvent{
      Seconds(600.0), CrashBarrier::kPostAllocate, TornWriteKind::kNone});
  fuzz_case.crashes.push_back(CrashEvent{Seconds(1500.0),
                                         CrashBarrier::kMidCheckpointWrite,
                                         TornWriteKind::kBitFlip});
  fuzz_case.flips.push_back(DirectiveFlip{Seconds(1200.0), 0.2, 0.8});

  std::vector<obs::JournalEvent> journal;
  std::vector<FuzzViolation> first =
      EvaluateFuzzCase(fuzz_case, config, &journal);
  for (const FuzzViolation& violation : first) {
    EXPECT_NE(violation.oracle, "crash-divergence") << violation.detail;
    EXPECT_NE(violation.oracle, "crash-restore") << violation.detail;
    EXPECT_NE(violation.oracle, "crash-save") << violation.detail;
  }
  std::vector<FuzzViolation> second = EvaluateFuzzCase(fuzz_case, config);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].oracle, second[i].oracle);
    EXPECT_EQ(first[i].detail, second[i].detail);
  }
#if SDB_JOURNAL
  // The twin actually died and restarted — no vacuous pass.
  bool saw_crash = false;
  bool saw_restart = false;
  for (const obs::JournalEvent& event : journal) {
    const std::string line = obs::EventToJsonl(event);
    saw_crash = saw_crash || line.find("crash-injected") != std::string::npos;
    saw_restart = saw_restart || line.find("warm-restart") != std::string::npos;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_restart);
#endif
}

TEST(FuzzTest, KnownBadIsFoundShrunkAndMinimal) {
  FuzzConfig config = StrictPolicyConfig();
  auto parsed = ParseFuzzCase(kKnownBadLine);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();

  // Bury the real trigger under a superfluous override and fault plan.
  FuzzCase noisy = *parsed;
  noisy.overrides["days"] = 0.5;
  noisy.faults.seed = 8;
  noisy.faults.Add(FaultEvent{.kind = FaultClass::kGaugeNoise,
                              .start = Seconds(100.0),
                              .end = Seconds(200.0),
                              .battery = 0,
                              .magnitude = 2.0});

  std::vector<FuzzViolation> violations = EvaluateFuzzCase(noisy, config);
  ASSERT_FALSE(violations.empty());
  bool saw_policy = false;
  for (const FuzzViolation& v : violations) {
    saw_policy = saw_policy || v.oracle == "policy-regression";
  }
  EXPECT_TRUE(saw_policy);

  int steps = 0;
  FuzzCase minimal = ShrinkFuzzCase(noisy, config, &steps);
  EXPECT_GE(steps, 2);  // Drops the fault event and the days override.
  EXPECT_TRUE(minimal.faults.empty());
  EXPECT_EQ(minimal.overrides.count("days"), 0u);
  EXPECT_EQ(minimal.overrides.count("capacity_mah"), 1u);
  EXPECT_EQ(minimal.overrides.count("scale"), 1u);
  // Even the neutral 0.5 directive regresses against the 0.9 panel at zero
  // tolerance, so the shrinker snaps dch and lands on the true minimum.
  EXPECT_EQ(FormatFuzzCase(minimal),
            "pack=phone-day seed=5 dch=0.5 chg=0.5 "
            "p:capacity_mah=1000 p:scale=3");
  EXPECT_FALSE(EvaluateFuzzCase(minimal, config).empty());
}

TEST(FuzzTest, KnownBadReplaysDeterministically) {
  FuzzConfig config = StrictPolicyConfig();
  auto parsed = ParseFuzzCase(kKnownBadLine);
  ASSERT_TRUE(parsed.ok());
  FuzzReport first = ReplayFuzzCases({*parsed}, config);
  FuzzReport second = ReplayFuzzCases({*parsed}, config);
  EXPECT_EQ(first.failures, 1u);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(first.fingerprint, second.fingerprint);
  ASSERT_EQ(first.cases.size(), 1u);
  EXPECT_TRUE(first.cases[0].failed);
  EXPECT_EQ(first.cases[0].reproducer, kKnownBadLine);
}

TEST(FuzzTest, CapturedJournalIsJobsInvariant) {
  // The flight-recorder journal attached to a failing case must not depend
  // on which worker thread evaluated it — EvaluateFuzzCase journals into a
  // case-local scope, so the captured sequence is a pure function of the
  // case. Serialize byte-for-byte across jobs to pin that.
  FuzzConfig config = StrictPolicyConfig();
  auto parsed = ParseFuzzCase(kKnownBadLine);
  ASSERT_TRUE(parsed.ok());
  std::vector<std::vector<std::string>> journals;
  for (int jobs : {1, 4}) {
    config.jobs = jobs;
    FuzzReport report = ReplayFuzzCases({*parsed, *parsed, *parsed}, config);
    ASSERT_EQ(report.cases.size(), 3u);
    std::vector<std::string> lines;
    for (const FuzzCaseReport& c : report.cases) {
      EXPECT_TRUE(c.failed);
      for (const obs::JournalEvent& event : c.journal) {
        lines.push_back(obs::EventToJsonl(event));
      }
    }
    journals.push_back(std::move(lines));
  }
  EXPECT_EQ(journals[0], journals[1]);
#if SDB_JOURNAL
  // The failing case actually journaled its oracle verdict — no vacuous pass.
  EXPECT_FALSE(journals[0].empty());
  bool saw_verdict = false;
  for (const std::string& line : journals[0]) {
    if (line.find("\"kind\":\"oracle-verdict\"") != std::string::npos) {
      saw_verdict = true;
    }
  }
  EXPECT_TRUE(saw_verdict);
#endif
}

// --- Differential test for oracle 4 ---------------------------------------

// Oracle 4's specification, frozen: four full-horizon fault-free probes on
// fresh default rigs, one for the case's directives and one for each of the
// 0.1/0.5/0.9 panel directives. EvaluateFuzzCase now runs only the probes
// its verdict can depend on and must report exactly this verdict. Do not
// edit: the salt is the fuzzer's rig salt.
constexpr uint64_t kReferenceRigSalt = 0x2165EEDULL;

struct ReferenceOracle4 {
  Duration sampled_lifetime;
  bool sampled_fell_short = false;
  Duration best;
  double best_directive = 0.0;
};

SimResult ReferenceProbe(const ScenarioSpec& spec, DirectiveParameters directives,
                         const FuzzConfig& config) {
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(
      BuildScenarioCells(spec), spec.seed ^ kReferenceRigSalt);
  RuntimeConfig runtime_config;
  runtime_config.directives = directives;
  SdbRuntime runtime(&micro, runtime_config);
  SimConfig sim_config = spec.sim;
  sim_config.max_duration =
      Seconds(std::min(sim_config.max_duration.value(), config.horizon_cap.value()));
  sim_config.stop_on_shortfall = false;
  Simulator sim(&runtime, sim_config);
  return sim.Run(spec.load, spec.supply);
}

ReferenceOracle4 RunReferenceOracle4(const FuzzCase& fuzz_case, const FuzzConfig& config) {
  StatusOr<ScenarioSpec> spec =
      ExpandScenario(fuzz_case.pack, fuzz_case.overrides, fuzz_case.seed);
  SDB_CHECK(spec.ok());
  ReferenceOracle4 out;
  SimResult sampled = ReferenceProbe(*spec, fuzz_case.directives, config);
  out.sampled_lifetime = sampled.first_shortfall.value_or(sampled.elapsed);
  out.sampled_fell_short = sampled.first_shortfall.has_value();
  out.best = out.sampled_lifetime;
  out.best_directive = fuzz_case.directives.discharging;
  for (double d : {0.1, 0.5, 0.9}) {
    DirectiveParameters directives;
    directives.discharging = d;
    directives.charging = d;
    SimResult result = ReferenceProbe(*spec, directives, config);
    Duration lifetime = result.first_shortfall.value_or(result.elapsed);
    if (lifetime.value() > out.best.value()) {
      out.best = lifetime;
      out.best_directive = d;
    }
  }
  return out;
}

std::string ReferenceG17(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// The frozen oracle's policy-regression detail at `max_loss`, "" for none.
std::string ReferenceDetail(const FuzzCase& fuzz_case, const ReferenceOracle4& ref,
                            double max_loss) {
  if (!(ref.best.value() > 0.0 &&
        ref.sampled_lifetime.value() < (1.0 - max_loss) * ref.best.value())) {
    return "";
  }
  return "dch=" + ReferenceG17(fuzz_case.directives.discharging) + " lifetime " +
         std::to_string(ref.sampled_lifetime.value()) + " s vs " +
         std::to_string(ref.best.value()) + " s at panel dch=" +
         ReferenceG17(ref.best_directive);
}

// EvaluateFuzzCase's policy-regression detail, "" for none.
std::string EvaluatedDetail(const FuzzCase& fuzz_case, const FuzzConfig& config) {
  std::string detail;
  for (const FuzzViolation& violation : EvaluateFuzzCase(fuzz_case, config)) {
    if (violation.oracle == "policy-regression") {
      EXPECT_TRUE(detail.empty()) << "two policy-regression verdicts";
      detail = violation.detail;
    }
  }
  return detail;
}

TEST(FuzzOracle4DifferentialTest, MatchesTheFourProbeSpecification) {
  std::vector<FuzzCase> cases;
  auto known_bad = ParseFuzzCase(kKnownBadLine);
  ASSERT_TRUE(known_bad.ok());
  cases.push_back(*known_bad);
  // The shrinker's 0.5/0.5 snap: the case's directives equal a panel entry.
  FuzzCase snapped = *known_bad;
  snapped.directives.discharging = 0.5;
  snapped.directives.charging = 0.5;
  cases.push_back(snapped);
  // Discharging equals the 0.1 panel entry but charging does not, so the
  // 0.1/0.1 probe is a different run, and it outlives the case by 5 s.
  auto half_match = ParseFuzzCase(
      "pack=harvest-dual seed=247 dch=0.10000000000000001 chg=0.050000000000000003 "
      "p:capacity_mah=835.59401367077692 p:tx_duty=0.46603294141242346 "
      "p:tx_w=4.4382702094028472");
  ASSERT_TRUE(half_match.ok());
  cases.push_back(*half_match);
  FuzzConfig sampling;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    cases.push_back(SampleFuzzCase(sampling, seed));
  }

  int served_whole_horizon = 0;
  int fell_short_panel_won = 0;
  int fell_short_no_panel_won = 0;
  int regressions = 0;
  for (const FuzzCase& fuzz_case : cases) {
    FuzzConfig config;
    const ReferenceOracle4 ref = RunReferenceOracle4(fuzz_case, config);
    const bool panel_won = ref.best.value() > ref.sampled_lifetime.value();
    served_whole_horizon += ref.sampled_fell_short ? 0 : 1;
    fell_short_panel_won += ref.sampled_fell_short && panel_won ? 1 : 0;
    fell_short_no_panel_won += ref.sampled_fell_short && !panel_won ? 1 : 0;
    for (double max_loss : {0.0, 0.25}) {
      config.max_lifetime_loss_fraction = max_loss;
      const std::string expected = ReferenceDetail(fuzz_case, ref, max_loss);
      regressions += expected.empty() ? 0 : 1;
      EXPECT_EQ(EvaluatedDetail(fuzz_case, config), expected)
          << FormatFuzzCase(fuzz_case) << " at max loss " << max_loss;
    }
  }
  // Every branch of the probe rule is exercised, and the oracle fires.
  EXPECT_GT(served_whole_horizon, 0);
  EXPECT_GT(fell_short_panel_won, 0);
  EXPECT_GT(fell_short_no_panel_won, 0);
  EXPECT_GT(regressions, 0);
}

}  // namespace
}  // namespace sdb
