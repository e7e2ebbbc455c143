#include "src/emu/fuzz.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/core/runtime.h"
#include "src/emu/harness.h"
#include "src/emu/simulator.h"
#include "src/emu/soak.h"
#include "src/hw/microcontroller.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace sdb {

namespace {

constexpr uint64_t kSampleSalt = 0xF022BAD5EEDULL;
constexpr uint64_t kFaultSalt = 0xFA17F1A6ULL;
constexpr uint64_t kRigSalt = 0x2165EEDULL;
// The crash/flip/charge-phase dimensions each draw from their own salted
// stream, so sampling them (or disabling them) leaves every pre-existing
// draw — and therefore the shape of historical corpora — untouched.
constexpr uint64_t kCrashSalt = 0xC2A54D175EEDULL;
constexpr uint64_t kFlipSalt = 0xF11BD1CE5EEDULL;
constexpr uint64_t kChargeFaultSalt = 0xC4A26EFA5EEDULL;
constexpr uint64_t kFuzzTornSalt = 0xF0221025EEDULL;

// Sampled case shape: fault events in a random plan, deaths in a crash
// schedule, and the chance of (and cap on) mid-run directive flips, aimed at
// the CoolDown/Probing window after a fault clears when the case has faults.
constexpr int kMaxFaultEvents = 3;
constexpr int kMaxCrashEvents = 2;
constexpr double kFlipProbability = 0.4;
constexpr int kMaxDirectiveFlips = 2;
// Checkpoint cadence for the crash-equivalence twin of a crashing case.
constexpr Duration kCrashCheckpointPeriod = Minutes(5.0);
// Oracle evaluations the shrinker may spend per failing case.
constexpr int kShrinkBudget = 48;

uint64_t HashString(const std::string& s) {
  // FNV-1a; folded into the fingerprint via MixU64.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 0x100000001B3ULL;
  }
  return h;
}

std::string FormatG17(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// Reproducer tokens are strict: the whole token parses, every number is
// finite, and seeds are unsigned decimal, as `--seed` demands.
bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && std::isfinite(*out);
}

// Directive weights and fault probabilities.
bool ParseFraction(const std::string& text, double* out) {
  return ParseDouble(text, out) && *out >= 0.0 && *out <= 1.0;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0) {
    return false;  // Empty, signed or space-led: strtoull would wrap "-1".
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0' && errno != ERANGE;
}

// A fault's battery: an index, or -1 for every battery.
bool ParseFaultBattery(const std::string& text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || parsed < -1 ||
      parsed > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

// Finds the member of `all` whose printed name is `name`.
template <typename Enum, size_t N, typename NameFn>
bool ParseName(const std::string& name, const Enum (&all)[N], NameFn name_of, Enum* out) {
  for (Enum value : all) {
    if (name_of(value) == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

constexpr CrashBarrier kAllCrashBarriers[] = {
    CrashBarrier::kPreAllocate, CrashBarrier::kPostAllocate, CrashBarrier::kMidCheckpointWrite};
constexpr TornWriteKind kAllTornWriteKinds[] = {TornWriteKind::kNone, TornWriteKind::kTruncate,
                                                TornWriteKind::kZeroRange, TornWriteKind::kBitFlip};

SimConfig CappedSimConfig(const ScenarioSpec& spec, const FuzzConfig& config) {
  SimConfig sim = spec.sim;
  sim.max_duration = Seconds(
      std::min(sim.max_duration.value(), config.horizon_cap.value()));
  sim.stop_on_shortfall = false;
  return sim;
}

// The achieved lifetime of one policy probe: the first shortfall, or the
// whole capped horizon when the load was always served.
struct PolicyProbe {
  Duration lifetime;
  bool fell_short = false;
};

// One fault-free policy run of the spec under explicit directives. The run
// stops at its first shortfall: RunLoop records first_shortfall on the very
// tick stop_on_shortfall breaks, so the lifetime is the one a full-horizon
// run returns.
PolicyProbe PolicyLifetime(const ScenarioSpec& spec, DirectiveParameters directives,
                           const FuzzConfig& config) {
  SdbMicrocontroller micro =
      MakeDefaultMicrocontroller(BuildScenarioCells(spec), spec.seed ^ kRigSalt);
  RuntimeConfig runtime_config;
  runtime_config.directives = directives;
  SdbRuntime runtime(&micro, runtime_config);
  SimConfig sim_config = CappedSimConfig(spec, config);
  sim_config.stop_on_shortfall = true;
  Simulator sim(&runtime, sim_config);
  SimResult result = sim.Run(spec.load, spec.supply);
  return {result.first_shortfall.value_or(result.elapsed),
          result.first_shortfall.has_value()};
}

// The full rig a fuzz case plays against; the crash-equivalence oracle
// rebuilds it across simulated process deaths.
std::unique_ptr<RecoveryRig> MakeFuzzRig(const ScenarioSpec& spec, const FuzzCase& fuzz_case) {
  RuntimeConfig config = HarnessRuntimeConfig();
  config.directives = fuzz_case.directives;
  return std::make_unique<RecoveryRig>(BuildScenarioCells(spec), spec.seed ^ kRigSalt,
                                       fuzz_case.faults, config);
}

// Applies every directive flip whose time has passed. Called from on_tick
// by the main run and its crash twin alike, so both play the same policy
// timeline; after a warm restart the cursor is re-derived from the resume
// clock (the flips' effect itself rides in the restored RuntimeState).
void ApplyDueFlips(const FuzzCase& fuzz_case, RecoveryRig& rig, Duration now,
                   size_t* cursor) {
  while (*cursor < fuzz_case.flips.size() &&
         fuzz_case.flips[*cursor].time.value() <= now.value()) {
    const DirectiveFlip& flip = fuzz_case.flips[*cursor];
    DirectiveParameters directives;
    directives.discharging = flip.discharging;
    directives.charging = flip.charging;
    rig.runtime.SetDirectives(directives);
    ++(*cursor);
  }
}

}  // namespace

// --- Reproducer lines --------------------------------------------------------

std::string FormatFuzzCase(const FuzzCase& fuzz_case) {
  std::ostringstream os;
  os << "pack=" << fuzz_case.pack << " seed=" << fuzz_case.seed
     << " dch=" << FormatG17(fuzz_case.directives.discharging)
     << " chg=" << FormatG17(fuzz_case.directives.charging);
  for (const auto& [name, value] : fuzz_case.overrides) {
    os << " p:" << name << "=" << FormatG17(value);
  }
  if (!fuzz_case.faults.empty()) {
    os << " fseed=" << fuzz_case.faults.seed;
    for (const FaultEvent& event : fuzz_case.faults.events) {
      os << " fault=" << FaultClassName(event.kind) << ":"
         << FormatG17(event.start.value()) << ":" << FormatG17(event.end.value())
         << ":" << event.battery << ":" << FormatG17(event.magnitude) << ":"
         << FormatG17(event.probability);
    }
  }
  for (const CrashEvent& event : fuzz_case.crashes) {
    os << " crash=" << CrashBarrierName(event.barrier) << ":"
       << TornWriteKindName(event.torn) << ":" << FormatG17(event.time.value());
  }
  for (const DirectiveFlip& flip : fuzz_case.flips) {
    os << " flip=" << FormatG17(flip.time.value()) << ":"
       << FormatG17(flip.discharging) << ":" << FormatG17(flip.charging);
  }
  return os.str();
}

StatusOr<FuzzCase> ParseFuzzCase(const std::string& line) {
  FuzzCase fuzz_case;
  bool saw_pack = false;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("reproducer token without '=': '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "pack") {
      if (value.empty()) {
        return InvalidArgumentError("empty pack name");
      }
      fuzz_case.pack = value;
      saw_pack = true;
    } else if (key == "seed") {
      if (!ParseU64(value, &fuzz_case.seed)) {
        return InvalidArgumentError("bad seed '" + value + "'");
      }
    } else if (key == "dch") {
      if (!ParseFraction(value, &fuzz_case.directives.discharging)) {
        return InvalidArgumentError("bad dch '" + value + "' (wants [0, 1])");
      }
    } else if (key == "chg") {
      if (!ParseFraction(value, &fuzz_case.directives.charging)) {
        return InvalidArgumentError("bad chg '" + value + "' (wants [0, 1])");
      }
    } else if (key == "fseed") {
      if (!ParseU64(value, &fuzz_case.faults.seed)) {
        return InvalidArgumentError("bad fseed '" + value + "'");
      }
    } else if (key.rfind("p:", 0) == 0) {
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed)) {
        return InvalidArgumentError("bad parameter value '" + token + "'");
      }
      fuzz_case.overrides[key.substr(2)] = parsed;
    } else if (key == "fault") {
      const std::vector<std::string> parts = SplitOn(value, ':');
      if (parts.size() != 6) {
        return InvalidArgumentError(
            "fault wants kind:start:end:battery:mag:prob, got '" + value + "'");
      }
      FaultEvent event;
      double start = 0.0;
      double end = 0.0;
      if (!ParseName(parts[0], kAllFaultClasses, FaultClassName, &event.kind)) {
        return InvalidArgumentError("unknown fault kind '" + parts[0] + "'");
      }
      if (!ParseDouble(parts[1], &start) || !ParseDouble(parts[2], &end) ||
          !ParseDouble(parts[4], &event.magnitude) ||
          !ParseDouble(parts[5], &event.probability)) {
        return InvalidArgumentError("bad fault numbers in '" + value + "'");
      }
      if (!ParseFaultBattery(parts[3], &event.battery)) {
        return InvalidArgumentError("fault battery wants an integer >= -1, got '" + value +
                                    "'");
      }
      if (end < start || !(event.probability >= 0.0 && event.probability <= 1.0)) {
        return InvalidArgumentError("fault wants start <= end and prob in [0, 1], got '" +
                                    value + "'");
      }
      event.start = Seconds(start);
      event.end = Seconds(end);
      fuzz_case.faults.Add(event);
    } else if (key == "crash") {
      const std::vector<std::string> parts = SplitOn(value, ':');
      if (parts.size() != 3) {
        return InvalidArgumentError("crash wants barrier:torn:time, got '" +
                                    value + "'");
      }
      CrashEvent event;
      double time = 0.0;
      if (!ParseName(parts[0], kAllCrashBarriers, CrashBarrierName, &event.barrier)) {
        return InvalidArgumentError("unknown crash barrier '" + parts[0] + "'");
      }
      if (!ParseName(parts[1], kAllTornWriteKinds, TornWriteKindName, &event.torn)) {
        return InvalidArgumentError("unknown torn-write kind '" + parts[1] + "'");
      }
      if (!ParseDouble(parts[2], &time)) {
        return InvalidArgumentError("bad crash time in '" + value + "'");
      }
      event.time = Seconds(time);
      fuzz_case.crashes.push_back(event);
    } else if (key == "flip") {
      const std::vector<std::string> parts = SplitOn(value, ':');
      if (parts.size() != 3) {
        return InvalidArgumentError("flip wants time:dch:chg, got '" + value +
                                    "'");
      }
      DirectiveFlip flip;
      double time = 0.0;
      if (!ParseDouble(parts[0], &time) ||
          !ParseFraction(parts[1], &flip.discharging) ||
          !ParseFraction(parts[2], &flip.charging)) {
        return InvalidArgumentError("bad flip numbers in '" + value + "'");
      }
      flip.time = Seconds(time);
      fuzz_case.flips.push_back(flip);
    } else {
      return InvalidArgumentError("unknown reproducer key '" + key + "'");
    }
  }
  if (!saw_pack) {
    return InvalidArgumentError("reproducer line has no pack= token");
  }
  return fuzz_case;
}

std::string FormatFuzzCorpus(const std::vector<std::string>& reproducers) {
  std::ostringstream os;
  os << "# sdb fuzz corpus: one reproducer per line (sdbsim fuzz --replay)\n";
  for (const std::string& line : reproducers) {
    os << line << "\n";
  }
  return os.str();
}

StatusOr<std::vector<FuzzCase>> ParseFuzzCorpus(const std::string& text) {
  std::vector<FuzzCase> cases;
  std::istringstream is(text);
  std::string line;
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    StatusOr<FuzzCase> parsed = ParseFuzzCase(line);
    if (!parsed.ok()) {
      return InvalidArgumentError("corpus line " + std::to_string(line_number) +
                                  ": " + std::string(parsed.status().message()));
    }
    cases.push_back(*std::move(parsed));
  }
  return cases;
}

// --- Sampling ----------------------------------------------------------------

FuzzCase SampleFuzzCase(const FuzzConfig& config, uint64_t case_seed) {
  Rng rng(case_seed ^ kSampleSalt);
  std::vector<std::string> names = config.packs;
  if (names.empty()) {
    for (const ScenarioPack& pack : ScenarioPacks()) {
      names.push_back(pack.name);
    }
  }
  FuzzCase fuzz_case;
  fuzz_case.pack = names[rng.NextBounded(names.size())];
  fuzz_case.seed = case_seed;
  const ScenarioPack* pack = FindScenarioPack(fuzz_case.pack);
  SDB_CHECK(pack != nullptr);
  // Each knob is overridden with probability 0.4; the rest stay at pack
  // defaults so shrinking has something to revert toward.
  for (const PackParamSpec& spec : pack->params) {
    const bool override_it = rng.NextDouble() < 0.4;
    const double value = rng.Uniform(spec.min_value, spec.max_value);
    if (override_it) {
      fuzz_case.overrides[spec.name] = value;
    }
  }
  fuzz_case.directives.discharging = rng.Uniform(0.05, 0.95);
  fuzz_case.directives.charging = rng.Uniform(0.05, 0.95);
  // Fault windows, charge spans and horizons need the expanded spec.
  StatusOr<ScenarioSpec> spec =
      ExpandScenario(fuzz_case.pack, fuzz_case.overrides, fuzz_case.seed);
  SDB_CHECK(spec.ok());  // Sampled overrides are in-range by construction.
  const Duration horizon =
      Seconds(std::min(spec->sim.max_duration.value(), config.horizon_cap.value()));
  if (rng.NextDouble() < config.fault_probability) {
    fuzz_case.faults =
        MakeRandomFaultPlan(case_seed ^ kFaultSalt,
                            static_cast<int>(spec->batteries.size()), horizon,
                            kMaxFaultEvents);
  }

  // The dimensions below draw from their own salted streams (see the salt
  // block up top).
  //
  // Charge-phase faults: when the scenario has a live supply window, aim one
  // fault drawn from the kinds that matter while charging at a supply-active
  // span, so recovery and replanning get exercised mid-charge too.
  Rng charge_rng(case_seed ^ kChargeFaultSalt);
  if (!spec->supply.empty() && charge_rng.NextDouble() < 0.5) {
    const std::vector<TraceSegment>& segments = spec->supply.segments();
    std::vector<size_t> active;
    for (size_t i = 0; i < segments.size(); ++i) {
      if (segments[i].power.value() > 0.0 && segments[i].start.value() < horizon.value()) {
        active.push_back(i);
      }
    }
    if (!active.empty()) {
      const size_t picked = active[charge_rng.NextBounded(active.size())];
      const double span_start = segments[picked].start.value();
      const double span_end = std::min(spec->supply.SegmentEnd(picked).value(), horizon.value());
      const FaultClass kinds[] = {
          FaultClass::kRegulatorCollapse, FaultClass::kThermalTrip,
          FaultClass::kGaugeBias, FaultClass::kGaugeStuck};
      FaultEvent event;
      event.kind = kinds[charge_rng.NextBounded(std::size(kinds))];
      const double start = charge_rng.Uniform(span_start, span_end);
      event.start = Seconds(start);
      event.end = Seconds(std::min(
          span_end, start + std::max(30.0, 0.25 * (span_end - span_start))));
      event.battery =
          static_cast<int>(charge_rng.NextBounded(spec->batteries.size()));
      event.magnitude = SampleFaultMagnitude(event.kind, charge_rng);
      if (fuzz_case.faults.empty()) {
        fuzz_case.faults.seed = case_seed ^ kChargeFaultSalt;
      }
      fuzz_case.faults.Add(event);
    }
  }

  // Crash schedule (oracle 5): seeded kill points, torn checkpoint writes.
  Rng crash_rng(case_seed ^ kCrashSalt);
  if (crash_rng.NextDouble() < config.crash_probability) {
    fuzz_case.crashes =
        MakeRandomCrashPlan(case_seed ^ kCrashSalt, horizon, kMaxCrashEvents).events;
  }

  // Directive flips: when the case has faults, aim them just after a fault
  // window closes — the supervisor's CoolDown → Probing recovery window —
  // so replanning under new directives meets a still-recovering pack.
  Rng flip_rng(case_seed ^ kFlipSalt);
  if (flip_rng.NextDouble() < kFlipProbability) {
    const int count = 1 + static_cast<int>(flip_rng.NextBounded(kMaxDirectiveFlips));
    for (int k = 0; k < count; ++k) {
      DirectiveFlip flip;
      if (!fuzz_case.faults.events.empty()) {
        const FaultEvent& fault = fuzz_case.faults.events[flip_rng.NextBounded(
            fuzz_case.faults.events.size())];
        flip.time = Seconds(std::min(
            fault.end.value() + flip_rng.Uniform(0.0, Minutes(10.0).value()),
            horizon.value()));
      } else {
        flip.time = Seconds(horizon.value() * flip_rng.Uniform(0.1, 0.9));
      }
      flip.discharging = flip_rng.Uniform(0.05, 0.95);
      flip.charging = flip_rng.Uniform(0.05, 0.95);
      fuzz_case.flips.push_back(flip);
    }
    std::sort(fuzz_case.flips.begin(), fuzz_case.flips.end(),
              [](const DirectiveFlip& a, const DirectiveFlip& b) {
                return a.time.value() < b.time.value();
              });
  }
  return fuzz_case;
}

// --- Oracles -----------------------------------------------------------------

std::vector<FuzzViolation> EvaluateFuzzCase(
    const FuzzCase& fuzz_case, const FuzzConfig& config,
    std::vector<obs::JournalEvent>* journal) {
  // Hermetic journaling: the case plays under its own journal (or none at
  // all), never the caller's — shrink evaluations stay silent under an
  // installed process journal, and a captured journal holds exactly this
  // case's events regardless of which worker thread ran it. The journal's
  // ring is built only when the caller captures it.
  std::optional<obs::EventJournal> local_journal;
  if (journal != nullptr) {
    local_journal.emplace();
  }
  obs::JournalScope journal_scope(local_journal.has_value() ? &*local_journal : nullptr);
  ViolationSink sink;
  auto finish = [&] {
    std::vector<FuzzViolation> violations;
    for (const Breach& breach : sink.kept()) {
      violations.push_back(FuzzViolation{breach.tag, breach.detail, breach.time});
    }
    if (sink.dropped() > 0) {
      violations.back().detail += " (+" + std::to_string(sink.dropped()) + " dropped)";
    }
    if (journal != nullptr) {
      *journal = local_journal->Snapshot();
    }
    return violations;
  };

  StatusOr<ScenarioSpec> expanded =
      ExpandScenario(fuzz_case.pack, fuzz_case.overrides, fuzz_case.seed);
  if (!expanded.ok()) {
    sink.Add(Seconds(0.0), "expand", std::string(expanded.status().message()));
    return finish();
  }
  const ScenarioSpec& spec = *expanded;

  // Main run: full rig (safety supervisor + command link + fault plan),
  // audited by the soak invariants on every hardware tick.
  std::unique_ptr<RecoveryRig> main_rig = MakeFuzzRig(spec, fuzz_case);
  RecoveryRig& rig = *main_rig;
  TickInvariants invariants(rig, &sink);

  // Supply-funded energy the SimResult ledger cannot split out: the slice
  // of the supply fed straight to the load (sampled exactly as the driver
  // loop samples it) and the charge regulator's own losses.
  double supply_to_load_j = 0.0;
  double charge_circuit_loss_j = 0.0;

  // Per-battery envelopes for oracle 3: a trip is only unexpected if no
  // battery was ever commanded past its own 80% power envelope — the
  // blended policy can legitimately concentrate an in-envelope pack load
  // onto one battery, and protecting that battery is the supervisor's job.
  std::vector<Power> battery_envelope;
  for (const BatteryParams& battery : spec.batteries) {
    battery_envelope.push_back(Watts(0.8 * battery.max_discharge_current.value() *
                                     battery.nominal_voltage.value()));
  }
  bool overdrive = false;

  // Oracle 3 counts only trips struck while the battery still held real
  // charge: an undervoltage trip at the bottom of the discharge curve is
  // the deep-discharge protection working, not a spurious trip.
  std::vector<uint64_t> prev_trips(rig.micro.battery_count(), 0);
  uint64_t unexpected_trips = 0;

  size_t flip_cursor = 0;
  // Trace segment hints for the oracle's own samples: any value is safe
  // (a miss falls back to the binary search), so they are case locals.
  size_t load_hint = 0;
  size_t supply_hint = 0;
  SimConfig sim_config = CappedSimConfig(spec, config);
  sim_config.on_tick = [&](const MicroTick& tick, Duration now) {
    ApplyDueFlips(fuzz_case, rig, now, &flip_cursor);
    const Duration at = now - tick.dt;
    const Power load_power = spec.load.Sample(at, &load_hint);
    const Power supply_power = spec.supply.Sample(at, &supply_hint);
    supply_to_load_j += std::min(std::max(0.0, load_power.value()),
                                 std::max(0.0, supply_power.value())) *
                        tick.dt.value();
    charge_circuit_loss_j += tick.charge.circuit_loss.value();
    const std::vector<double>& ratios = rig.runtime.last_discharge_ratios();
    for (size_t i = 0; i < ratios.size() && i < battery_envelope.size(); ++i) {
      if (ratios[i] * std::max(0.0, load_power.value()) >
          battery_envelope[i].value()) {
        overdrive = true;
      }
    }
    // Oracle 1: the soak harness's per-tick invariants.
    invariants.Check(tick, now);
    for (size_t i = 0; i < rig.micro.battery_count(); ++i) {
      uint64_t trips = rig.safety.trip_count(i);
      if (trips > prev_trips[i] && rig.micro.pack().cell(i).soc() > 0.15) {
        unexpected_trips += trips - prev_trips[i];
      }
      prev_trips[i] = trips;
    }
  };

  double e0 = rig.micro.pack().TotalRemainingEnergy().value();
  Simulator sim(&rig.runtime, sim_config);
  SimResult result = sim.Run(spec.load, spec.supply);
  double e1 = rig.micro.pack().TotalRemainingEnergy().value();

  // Oracle 2: the energy ledger balances. Cells fund the pack-served slice
  // of the load plus discharge/transfer losses and their own charge-time
  // resistive loss; the supply funds what it feeds the load directly, what
  // the pack absorbs, and the charge regulator's losses. Rearranged so
  // both sides are observable:
  //   (e0 - e1) + charged + supply_to_load
  //     = delivered + total_losses - charge_circuit_loss
  double drawn = (e0 - e1) + result.charged.value() + supply_to_load_j;
  double accounted = result.delivered.value() + result.TotalLoss().value() -
                     charge_circuit_loss_j;
  if (!std::isfinite(accounted) ||
      std::fabs(drawn - accounted) > LedgerTolerance(Joules(drawn)).value()) {
    sink.Add(result.elapsed, "ledger",
             "drawn " + std::to_string(drawn) + " J vs accounted " +
                 std::to_string(accounted) + " J");
  }

  // Oracle 3: no safety trip on an in-envelope, fault-free load where no
  // battery was individually commanded past its own envelope either.
  if (fuzz_case.faults.empty() && !overdrive &&
      spec.load.PeakPower().value() <= spec.envelope.value() &&
      unexpected_trips > 0) {
    sink.Add(result.elapsed, "safety-trip",
             std::to_string(unexpected_trips) +
                 " trip(s) on in-envelope fault-free load (peak " +
                 std::to_string(spec.load.PeakPower().value()) + " W, envelope " +
                 std::to_string(spec.envelope.value()) + " W)");
  }

  // Oracle 4: the sampled policy must stay within the configured fraction
  // of the best panel policy's lifetime on the fault-free twin.
  //
  // Only the probes the verdict can depend on run (DESIGN.md §14). Every
  // probe plays the same load, supply, capped horizon and tick, so a probe
  // that is never short ends at the same accumulated clock, and a probe
  // that falls short does so at or before it. When the sampled probe was
  // never short, no panel lifetime can exceed it; `best` moves only on a
  // strict `>`, so the panel probes are skipped. A panel entry equal to the
  // case's own directives replays the sampled probe exactly and cannot win
  // a strict `>` either.
  const double panel[] = {0.1, 0.5, 0.9};
  const PolicyProbe sampled = PolicyLifetime(spec, fuzz_case.directives, config);
  const Duration sampled_lifetime = sampled.lifetime;
  Duration best = sampled_lifetime;
  double best_directive = fuzz_case.directives.discharging;
  if (sampled.fell_short) {
    for (double d : panel) {
      if (d == fuzz_case.directives.discharging && d == fuzz_case.directives.charging) {
        continue;
      }
      DirectiveParameters directives;
      directives.discharging = d;
      directives.charging = d;
      Duration lifetime = PolicyLifetime(spec, directives, config).lifetime;
      if (lifetime.value() > best.value()) {
        best = lifetime;
        best_directive = d;
      }
    }
  }
  if (best.value() > 0.0 &&
      sampled_lifetime.value() <
          (1.0 - config.max_lifetime_loss_fraction) * best.value()) {
    sink.Add(result.elapsed, "policy-regression",
             "dch=" + FormatG17(fuzz_case.directives.discharging) + " lifetime " +
                 std::to_string(sampled_lifetime.value()) + " s vs " +
                 std::to_string(best.value()) + " s at panel dch=" +
                 FormatG17(best_directive));
  }

  // Oracle 5: crash equivalence. Replay the case with checkpointing on and
  // the scheduled deaths injected through the shared warm-restart driver.
  // The final result must be bit-identical to the never-crashed main run
  // above; a failed restore of a slot the store called good is a violation
  // too.
  if (!fuzz_case.crashes.empty()) {
    WarmRestartRun twin;
    twin.boot = [&spec, &fuzz_case] { return MakeFuzzRig(spec, fuzz_case); };
    twin.sim_config = [&](RecoveryRig& twin_rig, const SimLoopState* resume) {
      // Flips at or before the checkpoint were applied before the snapshot
      // and ride in the restored RuntimeState.
      size_t cursor = 0;
      while (resume != nullptr && cursor < fuzz_case.flips.size() &&
             fuzz_case.flips[cursor].time.value() <= resume->t.value()) {
        ++cursor;
      }
      SimConfig twin_config = CappedSimConfig(spec, config);
      twin_config.on_tick = [&fuzz_case, &twin_rig, cursor](const MicroTick&,
                                                            Duration now) mutable {
        ApplyDueFlips(fuzz_case, twin_rig, now, &cursor);
      };
      return twin_config;
    };
    twin.load = &spec.load;
    twin.supply = &spec.supply;
    twin.crashes = fuzz_case.crashes;
    std::sort(twin.crashes.begin(), twin.crashes.end(),
              [](const CrashEvent& a, const CrashEvent& b) {
                return a.time.value() < b.time.value();
              });
    twin.checkpoint_period = kCrashCheckpointPeriod;
    twin.config_digest = MixU64(MixU64(0, fuzz_case.seed), HashString(fuzz_case.pack));
    twin.torn_seed = fuzz_case.seed ^ kFuzzTornSalt;
    twin.save_tag = "crash-save";
    WarmRestartOutcome out = RunWithWarmRestarts(twin, &sink);
    if (!out.restore.ok()) {
      sink.Add(result.elapsed, "crash-restore", out.restore.ToString());
    } else {
      std::string divergence = DescribeSimResultDivergence(result, out.result);
      if (!divergence.empty()) {
        sink.Add(out.result.elapsed, "crash-divergence", divergence);
      }
    }
  }
  return finish();
}

// --- Shrinking ---------------------------------------------------------------

FuzzCase ShrinkFuzzCaseWith(const FuzzCase& fuzz_case,
                            const std::function<bool(const FuzzCase&)>& fails,
                            int budget, int* steps) {
  FuzzCase current = fuzz_case;
  int accepted = 0;
  int spent = 0;
  auto try_candidate = [&](const FuzzCase& candidate) {
    if (spent >= budget) {
      return false;
    }
    ++spent;
    if (!fails(candidate)) {
      return false;
    }
    current = candidate;
    ++accepted;
    return true;
  };
  bool reduced = true;
  while (reduced && spent < budget) {
    reduced = false;
    // Passes 1-3: drop fault events, crash events and directive flips, one
    // at a time.
    auto drop_each = [&](auto member) {
      for (size_t i = 0; i < member(current).size();) {
        FuzzCase candidate = current;
        member(candidate).erase(member(candidate).begin() + static_cast<long>(i));
        if (try_candidate(candidate)) {
          reduced = true;  // `current` shrank; retry the same index.
        } else {
          ++i;
        }
      }
    };
    drop_each([](FuzzCase& c) -> auto& { return c.faults.events; });
    drop_each([](FuzzCase& c) -> auto& { return c.crashes; });
    drop_each([](FuzzCase& c) -> auto& { return c.flips; });
    // Pass 4: revert parameter overrides to pack defaults.
    std::vector<std::string> keys;
    for (const auto& [name, value] : current.overrides) {
      keys.push_back(name);
    }
    for (const std::string& name : keys) {
      FuzzCase candidate = current;
      candidate.overrides.erase(name);
      if (try_candidate(candidate)) {
        reduced = true;
      }
    }
    // Pass 5: snap directives to the neutral 0.5.
    if (current.directives.discharging != 0.5) {
      FuzzCase candidate = current;
      candidate.directives.discharging = 0.5;
      reduced = try_candidate(candidate) || reduced;
    }
    if (current.directives.charging != 0.5) {
      FuzzCase candidate = current;
      candidate.directives.charging = 0.5;
      reduced = try_candidate(candidate) || reduced;
    }
  }
  if (steps != nullptr) {
    *steps = accepted;
  }
  return current;
}

FuzzCase ShrinkFuzzCase(const FuzzCase& fuzz_case, const FuzzConfig& config,
                        int* steps) {
  return ShrinkFuzzCaseWith(
      fuzz_case,
      [&config](const FuzzCase& candidate) {
        return !EvaluateFuzzCase(candidate, config).empty();
      },
      kShrinkBudget, steps);
}

// --- The sweep ---------------------------------------------------------------

namespace {

FuzzCaseReport BuildCaseReport(FuzzCase sampled, const FuzzConfig& config,
                               bool shrink) {
  FuzzCaseReport report;
  report.sampled = std::move(sampled);
  report.violations = EvaluateFuzzCase(report.sampled, config, &report.journal);
  report.failed = !report.violations.empty();
  if (report.failed) {
    FuzzCase minimal = shrink
                           ? ShrinkFuzzCase(report.sampled, config,
                                            &report.shrink_steps)
                           : report.sampled;
    report.reproducer = FormatFuzzCase(minimal);
    if (report.reproducer != FormatFuzzCase(report.sampled)) {
      // The journal should narrate the case the reproducer line replays, so
      // re-run the shrunk case once with capture. The violations (and the
      // fingerprint they feed) stay those of the sampled case.
      EvaluateFuzzCase(minimal, config, &report.journal);
    }
  }
  uint64_t h = MixU64(0, report.sampled.seed);
  h = MixU64(h, HashString(FormatFuzzCase(report.sampled)));
  h = MixU64(h, report.failed ? 1 : 0);
  h = MixU64(h, static_cast<uint64_t>(report.violations.size()));
  for (const FuzzViolation& violation : report.violations) {
    h = MixU64(h, HashString(violation.oracle));
  }
  h = MixU64(h, HashString(report.reproducer));
  report.fingerprint = h;
  return report;
}

// Evaluates case k = case_at(k) into slot k for every k in [0, count).
FuzzReport SweepCases(int64_t count, const FuzzConfig& config, bool shrink,
                      const std::function<FuzzCase(int64_t)>& case_at) {
  FuzzReport report;
  report.cases.resize(static_cast<size_t>(count));
  RunSeededSweep(count, config.jobs, [&](int64_t index) {
    report.cases[index] = BuildCaseReport(case_at(index), config, shrink);
  });
  for (const FuzzCaseReport& fuzz_case : report.cases) {
    if (fuzz_case.failed) {
      ++report.failures;
    }
  }
  report.fingerprint = MergeFingerprints(report.cases);
  return report;
}

}  // namespace

Status CheckFuzzSettings(const FuzzConfig& config) {
  // Negated comparisons, so NaN is rejected too.
  if (!(config.fault_probability >= 0.0 && config.fault_probability <= 1.0)) {
    return InvalidArgumentError("fuzz fault probability must lie in [0, 1], got " +
                                FormatG17(config.fault_probability));
  }
  if (!(config.max_lifetime_loss_fraction >= 0.0 &&
        config.max_lifetime_loss_fraction <= 1.0)) {
    return InvalidArgumentError("fuzz max lifetime loss must lie in [0, 1], got " +
                                FormatG17(config.max_lifetime_loss_fraction));
  }
  if (!(config.horizon_cap.value() > 0.0)) {
    return InvalidArgumentError("fuzz horizon cap must be positive, got " +
                                FormatG17(config.horizon_cap.value()) + " s");
  }
  return Status::Ok();
}

StatusOr<FuzzReport> RunFuzz(const FuzzConfig& config) {
  if (config.cases <= 0) {
    return InvalidArgumentError("fuzz wants at least one case");
  }
  for (const std::string& name : config.packs) {
    if (FindScenarioPack(name) == nullptr) {
      return InvalidArgumentError("unknown pack '" + name +
                                  "' in fuzz pack list (sdbsim workload --list)");
    }
  }
  if (Status settings = CheckFuzzSettings(config); !settings.ok()) {
    return settings;
  }
  return SweepCases(config.cases, config, config.shrink, [&config](int64_t index) {
    return SampleFuzzCase(config, config.master_seed + static_cast<uint64_t>(index));
  });
}

FuzzReport ReplayFuzzCases(const std::vector<FuzzCase>& cases,
                           const FuzzConfig& config) {
  // Replay never re-shrinks: the line under replay is already the minimal
  // case and must fail (or pass) as-is.
  return SweepCases(static_cast<int64_t>(cases.size()), config, /*shrink=*/false,
                    [&cases](int64_t index) { return cases[index]; });
}

}  // namespace sdb
