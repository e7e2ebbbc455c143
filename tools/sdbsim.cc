// sdbsim — command-line driver for the SDB stack.
//
// Lets a user assemble a heterogeneous pack from the battery library, play
// a constant load or a recorded CSV power trace through the SDB runtime,
// and inspect the outcome — without writing any C++.
//
// Examples:
//   sdbsim list
//   sdbsim simulate --battery fast:4000 --battery high-energy:4000
//          --load-watts 8 --hours 4 --discharge-directive 0.9
//   sdbsim simulate --battery watch:200 --battery bendable:200
//          --trace day.csv --tick 5 --hourly-csv out.csv
//   sdbsim plan-charge --battery high-energy:4000 --soc 0.2 --deadline-hours 8
//   sdbsim sweep --battery fast:4000 --battery high-energy:4000
//          --load-watts 8 --hours 4 --runs 64 --jobs 4
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "src/chem/library.h"
#include "src/core/charge_planner.h"
#include "src/core/optimizer.h"
#include "src/core/runtime.h"
#include "src/emu/fuzz.h"
#include "src/emu/monte_carlo.h"
#include "src/emu/scenario_pack.h"
#include "src/emu/simulator.h"
#include "src/emu/crash.h"
#include "src/emu/soak.h"
#include "src/emu/trace_io.h"
#include "src/emu/workload.h"
#include "src/hw/command_link.h"
#include "src/hw/fault.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/obs/postmortem.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/util/check.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace {

using namespace sdb;

// --- Strict operand parsers ---------------------------------------------------
//
// The whole text must parse, so a typo such as `--max-loss-pct abc` is a
// usage error rather than atof's silent 0. `what` names the operand in the
// one-line error. The flag table below and the fields inside compound
// operands (--fault, --param, --battery NAME:MAH, pack-file SoCs) share them.

// `positive_unit`, when set, also demands a positive, finite number and
// names what it counts in the range error.
bool ParseNumber(const std::string& what, const std::string& text, double* out,
                 const char* positive_unit = nullptr) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    std::fprintf(stderr, "sdbsim: %s wants a number, got '%s'\n", what.c_str(), text.c_str());
    return false;
  }
  if (positive_unit != nullptr && (!(parsed > 0.0) || !std::isfinite(parsed))) {
    std::fprintf(stderr, "sdbsim: %s wants a positive number of %s, got '%s'\n", what.c_str(),
                 positive_unit, text.c_str());
    return false;
  }
  *out = parsed;
  return true;
}

bool ParseFraction(const std::string& what, const std::string& text, double* out) {
  double parsed = 0.0;
  if (!ParseNumber(what, text, &parsed)) {
    return false;
  }
  if (!(parsed >= 0.0 && parsed <= 1.0)) {
    std::fprintf(stderr, "sdbsim: %s wants a fraction in [0, 1], got '%s'\n", what.c_str(),
                 text.c_str());
    return false;
  }
  *out = parsed;
  return true;
}

// ParseInt's `min` for an int of any sign.
constexpr int kAnyInt = std::numeric_limits<int>::min();

bool ParseInt(const std::string& what, const std::string& text, int min, int* out) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() || parsed > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "sdbsim: %s wants an integer, got '%s'\n", what.c_str(), text.c_str());
    return false;
  }
  if (parsed < min) {
    std::fprintf(stderr, "sdbsim: %s wants a %s integer, got '%s'\n", what.c_str(),
                 min > 0 ? "positive" : "non-negative", text.c_str());
    return false;
  }
  *out = static_cast<int>(parsed);
  return true;
}

// Seeds are unsigned 64-bit; a sign or any trailing text is a usage error.
bool ParseSeed(const std::string& what, const std::string& text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "sdbsim: %s wants an unsigned integer, got '%s'\n", what.c_str(),
                 text.c_str());
    return false;
  }
  *out = parsed;
  return true;
}

// Splits "a:b:c" at every `sep`; an empty field stays an empty string.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  size_t pos = 0;
  for (size_t at = text.find(sep); at != std::string::npos; at = text.find(sep, pos)) {
    parts.push_back(text.substr(pos, at - pos));
    pos = at + 1;
  }
  parts.push_back(text.substr(pos));
  return parts;
}

// --- Battery registry --------------------------------------------------------

BatteryParams MakeType2Default(Charge c) { return MakeType2Standard(c, 0); }
BatteryParams MakeType3Default(Charge c) { return MakeType3FastCharge(c, 0); }
BatteryParams MakeType4Default(Charge c) { return MakeType4Bendable(c, 0); }

// The names --battery accepts, in `sdbsim list` order.
struct BatteryType {
  const char* name;
  BatteryParams (*make)(Charge);
  const char* chemistry;
  const char* character;
};

const BatteryType kBatteryTypes[] = {
    {"type1", MakeType1PowerCell, "LiFePO4", "power-tool cell: 10C discharge, 2000 cycles"},
    {"type2", MakeType2Default, "CoO2 standard", "everyday mobile cell"},
    {"type3", MakeType3Default, "CoO2 fast-charge", "3C charge, lower energy density"},
    {"type4", MakeType4Default, "ceramic bendable", "flexible, ohm-scale resistance"},
    {"fast", MakeFastChargeTablet, "CoO2 fast-charge", "tablet fast-charging cell (Fig. 11)"},
    {"high-energy", MakeHighEnergyTablet, "CoO2 standard", "595 Wh/l tablet cell (Fig. 11)"},
    {"watch", MakeWatchLiIon, "CoO2 standard", "small rigid watch cell (Fig. 13)"},
    {"bendable", MakeType4Default, "ceramic bendable", "strap battery (Fig. 13)"},
    {"2in1-internal", MakeTwoInOneInternal, "CoO2 standard", "tablet-side battery (Fig. 14)"},
    {"2in1-external", MakeTwoInOneExternal, "CoO2 standard", "keyboard-base battery (Fig. 14)"},
};

// Parses "name[:mah]" into battery params.
std::optional<BatteryParams> ParseBatterySpec(const std::string& spec) {
  size_t colon = spec.find(':');
  std::string name = spec.substr(0, colon);
  double mah = 3000.0;
  if (colon != std::string::npos &&
      !ParseNumber("capacity in '" + spec + "'", spec.substr(colon + 1), &mah, "mAh")) {
    return std::nullopt;
  }
  for (const BatteryType& type : kBatteryTypes) {
    if (name == type.name) {
      return type.make(MilliAmpHours(mah));
    }
  }
  std::fprintf(stderr, "sdbsim: unknown battery '%s' (try `sdbsim list`)\n", name.c_str());
  return std::nullopt;
}

// --- Fault specs --------------------------------------------------------------

// Parses "kind:start_h:end_h[:battery[:magnitude[:probability]]]".
// Kinds are the taxonomy's kebab-case names (see FaultClassName); the
// thermal-trip magnitude is given in degrees Celsius for convenience.
std::optional<FaultEvent> ParseFaultSpec(const std::string& spec) {
  std::vector<std::string> parts = Split(spec, ':');
  if (parts.size() < 3 || parts.size() > 6) {
    std::fprintf(stderr, "sdbsim: bad fault spec '%s'\n", spec.c_str());
    return std::nullopt;
  }
  const FaultClass* kind =
      std::find_if(std::begin(kAllFaultClasses), std::end(kAllFaultClasses),
                   [&parts](FaultClass c) { return FaultClassName(c) == parts[0]; });
  if (kind == std::end(kAllFaultClasses)) {
    std::fprintf(stderr, "sdbsim: unknown fault kind '%s'\n", parts[0].c_str());
    return std::nullopt;
  }
  FaultEvent event;
  event.kind = *kind;
  const std::string what = "--fault '" + spec + "' ";
  double start_h = 0.0;
  double end_h = 0.0;
  if (!ParseNumber(what + "start", parts[1], &start_h) ||
      !ParseNumber(what + "end", parts[2], &end_h) ||
      (parts.size() > 3 && !ParseInt(what + "battery", parts[3], kAnyInt, &event.battery)) ||
      (parts.size() > 4 && !ParseNumber(what + "magnitude", parts[4], &event.magnitude)) ||
      (parts.size() > 5 && !ParseNumber(what + "probability", parts[5], &event.probability))) {
    return std::nullopt;
  }
  if (!std::isfinite(start_h) || !std::isfinite(end_h) || !std::isfinite(event.magnitude)) {
    std::fprintf(stderr, "sdbsim: fault '%s' wants finite START_H, END_H and MAGNITUDE\n",
                 spec.c_str());
    return std::nullopt;
  }
  event.start = Hours(start_h);
  event.end = Hours(end_h);
  if (parts.size() > 4 && event.kind == FaultClass::kThermalTrip) {
    event.magnitude = Celsius(event.magnitude).value();
  }
  if (event.end < event.start || !(event.probability >= 0.0 && event.probability <= 1.0)) {
    std::fprintf(stderr, "sdbsim: fault '%s' wants START_H <= END_H and PROB in [0, 1]\n",
                 spec.c_str());
    return std::nullopt;
  }
  return event;
}

// --- Flag parsing -------------------------------------------------------------

struct Args {
  std::string command;
  std::vector<std::string> batteries;
  // Pack-file SoCs, parallel to `batteries`; -1 or past the end = default.
  std::vector<double> battery_socs;
  double load_watts = 0.0;
  double hours = 0.0;
  std::string trace_path;
  double supply_watts = 0.0;
  double tick_s = 1.0;
  double discharge_directive = 0.5;
  double charge_directive = 0.5;
  double deadline_hours = 8.0;
  double target_soc = 1.0;
  double soc = -1.0;  // Uniform initial SoC shortcut.
  std::string hourly_csv;
  uint64_t seed = 42;
  int runs = 32;  // Sweep width for `sweep`.
  int jobs = 0;   // Sweep workers: 0 = auto (SDB_THREADS / hardware).
  int schedules = 20;       // Randomized fault schedules for `soak`.
  double period_min = 10.0; // Runtime replan period for `soak`, minutes.
  // `crash` (DESIGN.md §16):
  double checkpoint_min = 5.0;  // --checkpoint-period MIN
  int max_crashes = 3;          // --max-crashes per schedule
  std::string crash_corpus;     // --corpus DIR: validate a torn-write corpus.
  std::vector<std::string> faults;  // Fault specs for `faults`.
  std::string trace_out;    // Chrome trace JSON (for `trace`).
  std::string metrics_out;  // MetricsRegistry JSON, written by any command.
  // `workload` / `fuzz` (scenario packs, ROADMAP item 5):
  std::string pack_name;            // Positional pack name for `workload`.
  std::vector<std::string> params;  // --param NAME=VALUE overrides.
  bool list_packs = false;          // --list
  std::string export_trace;         // --export-trace FILE.csv
  int cases = 20;                   // --cases for `fuzz`.
  std::string packs_csv;            // --packs a,b[,c] pack filter for `fuzz`.
  double fault_prob = 0.5;          // --fault-prob
  double max_loss_pct = 25.0;       // --max-loss-pct (policy oracle slack).
  bool no_shrink = false;           // --no-shrink
  std::string corpus_out;           // --corpus-out FILE
  std::string replay_path;          // --replay FILE
  // Flight recorder / timeline (DESIGN.md §15):
  std::string flight_out;    // --flight-out DIR: post-mortem bundle, any command.
  std::string timeline_out;  // --timeline-out FILE(.csv|.json), simulate/workload.
  double timeline_period_s = 60.0;  // --timeline-period S
  std::string kind_filter;   // --kind KIND event filter for `blackbox`.
};

// Pack file: one battery per line, "name[:mah][:soc]"; '#' comments. Each
// line joins `batteries`, its SoC (when given) the parallel `battery_socs`.
bool ReadPackFile(const std::string& path, Args* args) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "sdbsim: cannot open pack file '%s'\n", path.c_str());
    return false;
  }
  // --battery entries before this file keep the default SoC.
  args->battery_socs.resize(args->batteries.size(), -1.0);
  std::string line;
  while (std::getline(in, line)) {
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') {
      continue;
    }
    line = line.substr(start, line.find_last_not_of(" \t\r") + 1 - start);
    // Split off an optional trailing :soc (second colon).
    double soc = -1.0;
    size_t first = line.find(':');
    size_t second = first == std::string::npos ? std::string::npos
                                               : line.find(':', first + 1);
    if (second != std::string::npos) {
      if (!ParseFraction("SoC in pack line '" + line + "'", line.substr(second + 1), &soc)) {
        return false;
      }
      line.resize(second);
    }
    args->batteries.push_back(line);
    args->battery_socs.push_back(soc);
  }
  return true;
}

// How a flag's operand is parsed and range-checked; each kind has exactly
// one code path in ParseOperand.
enum class Operand {
  kText,         // Stored as given.
  kTexts,        // Repeatable; every occurrence appended.
  kNumber,       // Any number.
  kPositive,     // A positive, finite number.
  kFraction,     // A finite number in [0, 1].
  kCount,        // An int >= 0.
  kPositiveInt,  // An int >= 1.
  kSeed,         // An unsigned 64-bit integer.
  kSwitch,       // No operand; sets the field to true.
  kPackFile,     // A pack file, read into --battery's list.
};

// The Args member a flag's operand lands in; its type matches the kind.
using Field = std::variant<std::string Args::*, std::vector<std::string> Args::*,
                           double Args::*, int Args::*, uint64_t Args::*, bool Args::*>;

struct FlagSpec {
  const char* flag;
  Operand kind;
  Field field;
  const char* unit = "";  // kPositive: what the number counts.
};

const FlagSpec kFlags[] = {
    {"--battery", Operand::kTexts, &Args::batteries},
    {"--pack", Operand::kPackFile, &Args::batteries},
    {"--soc", Operand::kFraction, &Args::soc},
    {"--load-watts", Operand::kNumber, &Args::load_watts},
    {"--hours", Operand::kPositive, &Args::hours, "hours"},
    {"--trace", Operand::kText, &Args::trace_path},
    {"--supply-watts", Operand::kNumber, &Args::supply_watts},
    {"--tick", Operand::kPositive, &Args::tick_s, "seconds"},
    {"--discharge-directive", Operand::kFraction, &Args::discharge_directive},
    {"--charge-directive", Operand::kFraction, &Args::charge_directive},
    {"--deadline-hours", Operand::kNumber, &Args::deadline_hours},
    {"--target-soc", Operand::kFraction, &Args::target_soc},
    {"--hourly-csv", Operand::kText, &Args::hourly_csv},
    {"--seed", Operand::kSeed, &Args::seed},
    {"--runs", Operand::kPositiveInt, &Args::runs},
    {"--jobs", Operand::kCount, &Args::jobs},  // 0 = auto.
    {"--schedules", Operand::kPositiveInt, &Args::schedules},
    {"--period", Operand::kPositive, &Args::period_min, "minutes"},
    {"--checkpoint-period", Operand::kPositive, &Args::checkpoint_min, "minutes"},
    {"--max-crashes", Operand::kPositiveInt, &Args::max_crashes},
    {"--corpus", Operand::kText, &Args::crash_corpus},
    {"--fault", Operand::kTexts, &Args::faults},
    {"--trace-out", Operand::kText, &Args::trace_out},
    {"--metrics-out", Operand::kText, &Args::metrics_out},
    {"--param", Operand::kTexts, &Args::params},
    {"--list", Operand::kSwitch, &Args::list_packs},
    {"--export-trace", Operand::kText, &Args::export_trace},
    {"--cases", Operand::kPositiveInt, &Args::cases},
    {"--packs", Operand::kText, &Args::packs_csv},
    {"--fault-prob", Operand::kNumber, &Args::fault_prob},
    {"--max-loss-pct", Operand::kNumber, &Args::max_loss_pct},
    {"--no-shrink", Operand::kSwitch, &Args::no_shrink},
    {"--corpus-out", Operand::kText, &Args::corpus_out},
    {"--replay", Operand::kText, &Args::replay_path},
    {"--flight-out", Operand::kText, &Args::flight_out},
    {"--timeline-out", Operand::kText, &Args::timeline_out},
    {"--timeline-period", Operand::kPositive, &Args::timeline_period_s, "seconds"},
    {"--kind", Operand::kText, &Args::kind_filter},
};

bool ParseOperand(const FlagSpec& spec, const std::string& value, Args* args) {
  switch (spec.kind) {
    case Operand::kText:
      args->*std::get<std::string Args::*>(spec.field) = value;
      return true;
    case Operand::kTexts:
      (args->*std::get<std::vector<std::string> Args::*>(spec.field)).push_back(value);
      return true;
    case Operand::kNumber:
    case Operand::kPositive:
      return ParseNumber(spec.flag, value, &(args->*std::get<double Args::*>(spec.field)),
                         spec.kind == Operand::kPositive ? spec.unit : nullptr);
    case Operand::kFraction:
      return ParseFraction(spec.flag, value, &(args->*std::get<double Args::*>(spec.field)));
    case Operand::kCount:
    case Operand::kPositiveInt:
      return ParseInt(spec.flag, value, spec.kind == Operand::kPositiveInt ? 1 : 0,
                      &(args->*std::get<int Args::*>(spec.field)));
    case Operand::kSeed:
      return ParseSeed(spec.flag, value, &(args->*std::get<uint64_t Args::*>(spec.field)));
    case Operand::kPackFile:
      return ReadPackFile(value, args);
    case Operand::kSwitch:
      args->*std::get<bool Args::*>(spec.field) = true;
      return true;
  }
  return false;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    return std::nullopt;
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    // One positional operand: the scenario-pack name for `workload`.
    if (!flag.empty() && flag[0] != '-' && args.pack_name.empty()) {
      args.pack_name = flag;
      continue;
    }
    const FlagSpec* spec = std::find_if(std::begin(kFlags), std::end(kFlags),
                                        [&flag](const FlagSpec& f) { return flag == f.flag; });
    if (spec == std::end(kFlags)) {
      std::fprintf(stderr, "sdbsim: unknown flag '%s'\n", flag.c_str());
      return std::nullopt;
    }
    std::string value;
    if (spec->kind != Operand::kSwitch) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sdbsim: %s needs a value\n", flag.c_str());
        return std::nullopt;
      }
      value = argv[++i];
    }
    if (!ParseOperand(*spec, value, &args)) {
      return std::nullopt;
    }
  }
  return args;
}

// --- Flight recorder (--flight-out) ------------------------------------------

// Process-wide flight-recorder context: a journal installed on the main
// thread for the whole command, plus everything the post-mortem manifest
// needs. The harness commands (fuzz, soak) write the bundle themselves from
// the first failing case's own journal; every other command falls through
// to the generic dump in main() after the handler returns.
struct FlightContext {
  std::string dir;
  std::string tool;  // "sdbsim <command>".
  uint64_t seed = 0;
  int jobs = 1;
  std::string config_digest;  // DigestConfig over the full flag line.
  obs::EventJournal journal{4096};
  bool written = false;
  bool failed = false;  // A requested bundle could not be written.
};

FlightContext* g_flight = nullptr;

// Writes the bundle once per run (a check-failure dump may overwrite).
void WriteFlightBundle(const std::string& trigger,
                       const std::vector<obs::JournalEvent>& events,
                       const std::string& reproducer) {
  if (g_flight == nullptr || g_flight->written) {
    return;
  }
  obs::PostmortemManifest manifest;
  manifest.tool = g_flight->tool;
  manifest.trigger = trigger;
  manifest.git_sha = obs::GitShaForManifest();
  manifest.seed = g_flight->seed;
  manifest.jobs = g_flight->jobs;
  manifest.config_digest = g_flight->config_digest;
  manifest.reproducer = reproducer;
  std::string error = obs::WritePostmortemBundle(
      g_flight->dir, manifest, events, obs::MetricsRegistry::Global().ToJson());
  if (!error.empty()) {
    // The user asked for a bundle and did not get one: surface it in the
    // exit code (main checks `failed`), not just on stderr.
    std::fprintf(stderr, "sdbsim: %s\n", error.c_str());
    g_flight->failed = true;
    return;
  }
  g_flight->written = true;
  g_flight->failed = false;
  std::printf("flight recorder: bundle written to %s (trigger %s, %zu event(s))\n",
              g_flight->dir.c_str(), trigger.c_str(), events.size());
}

// SDB_CHECK hook: record the failure and dump whatever the process journal
// holds before CheckFailed aborts. Overwrites an already-written bundle —
// the crash dump is strictly more informative.
void FlightCheckFailureHandler(const char* expr, const char* file, int line) {
  if (g_flight == nullptr) {
    return;
  }
  obs::JournalEvent event;
  event.kind = obs::EventKind::kCheckFailure;
  event.what = expr;
  event.detail = std::string(file) + ":" + std::to_string(line);
  g_flight->journal.Emit(std::move(event));
  g_flight->written = false;
  WriteFlightBundle("check-failure", g_flight->journal.Snapshot(), std::string());
}

// --- Shared rig assembly ------------------------------------------------------

// Builds the pack from --battery/--pack specs (per-battery SoC wins over
// --soc, which wins over full). Empty optional on a bad or missing spec.
std::optional<std::vector<Cell>> BuildCells(const Args& args) {
  if (args.batteries.empty()) {
    std::fprintf(stderr, "sdbsim: %s needs at least one --battery\n", args.command.c_str());
    return std::nullopt;
  }
  std::vector<Cell> cells;
  for (size_t i = 0; i < args.batteries.size(); ++i) {
    auto params = ParseBatterySpec(args.batteries[i]);
    if (!params.has_value()) {
      return std::nullopt;
    }
    double soc = args.soc >= 0.0 ? args.soc : 1.0;
    if (i < args.battery_socs.size() && args.battery_socs[i] >= 0.0) {
      soc = args.battery_socs[i];
    }
    cells.emplace_back(std::move(*params), soc);
  }
  return cells;
}

std::optional<PowerTrace> ReadTrace(const std::string& path) {
  auto trace = ReadPowerTraceFile(path);
  if (!trace.ok()) {
    std::fprintf(stderr, "sdbsim: %s\n", trace.status().ToString().c_str());
    return std::nullopt;
  }
  return *std::move(trace);
}

// Builds the load from --trace or --load-watts/--hours.
std::optional<PowerTrace> BuildLoad(const Args& args) {
  if (!args.trace_path.empty()) {
    return ReadTrace(args.trace_path);
  }
  if (args.load_watts > 0.0 && args.hours > 0.0) {
    return PowerTrace::Constant(Watts(args.load_watts), Hours(args.hours));
  }
  std::fprintf(stderr, "sdbsim: need --trace or --load-watts + --hours\n");
  return std::nullopt;
}

// The runtime and driver-loop settings every rig command (simulate, faults,
// sweep, trace) shares: the two directives, the --tick hardware step and a
// replan period of max(30 s, tick).
RuntimeConfig MakeRuntimeConfig(const Args& args) {
  RuntimeConfig config;
  config.directives.discharging = args.discharge_directive;
  config.directives.charging = args.charge_directive;
  return config;
}

SimConfig MakeSimConfig(const Args& args) {
  SimConfig config;
  config.tick = Seconds(args.tick_s);
  config.runtime_period = Seconds(std::max(30.0, args.tick_s));
  return config;
}

// One seeded run of the rig for the Monte-Carlo engine (sweep, trace);
// BuildCells must already have accepted `args`' specs.
ScenarioFn SeededRun(const Args& args, const PowerTrace& load) {
  return [&args, &load](uint64_t seed) {
    SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(*BuildCells(args)), seed);
    SdbRuntime runtime(&micro, MakeRuntimeConfig(args));
    Simulator sim(&runtime, MakeSimConfig(args));
    return sim.Run(load);
  };
}

// Plays `load`, plus a constant --supply-watts supply when one is given,
// through `runtime`; a shortfall is recorded rather than ending the run.
SimResult PlayLoad(const Args& args, SdbRuntime* runtime, const PowerTrace& load,
                   obs::Timeline* timeline) {
  SimConfig config = MakeSimConfig(args);
  config.stop_on_shortfall = false;
  config.timeline = timeline;
  Simulator sim(runtime, config);
  PowerTrace supply = args.supply_watts > 0.0
                          ? PowerTrace::Constant(Watts(args.supply_watts), load.TotalDuration())
                          : PowerTrace();
  return sim.Run(load, supply);
}

// The outcome lines `simulate` and `faults` share.
void PrintRunSummary(const SimResult& result, const SdbMicrocontroller& micro) {
  std::printf("simulated %.2f h; delivered %.1f kJ; losses %.1f J battery + %.1f J circuit\n",
              ToHours(result.elapsed), result.delivered.value() / 1000.0,
              result.battery_loss.value(), result.circuit_loss.value());
  if (result.first_shortfall.has_value()) {
    std::printf("load first unmet at %.2f h\n", ToHours(*result.first_shortfall));
  } else {
    std::printf("load fully served\n");
  }
  for (size_t i = 0; i < result.final_soc.size(); ++i) {
    const Cell& cell = micro.pack().cell(i);
    std::printf("battery %zu (%s): SoC %.1f%%, %.1f cycles, %.2f C cell temperature\n", i,
                cell.params().name.c_str(), 100.0 * result.final_soc[i],
                cell.aging().cycle_count(), ToCelsius(cell.thermal().temperature()));
  }
}

// Writes `text` to `path`. An unopenable path or a short write is a
// one-line error (the caller exits 2), never a silent success.
bool WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "sdbsim: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "sdbsim: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

// Per-hour table: energy buckets plus the runtime-health columns, so fault
// replays are plottable straight from the hourly export.
bool WriteHourlyCsv(const std::string& path, const SimResult& result) {
  std::ostringstream out;
  out << "hour,load_j,battery_loss_j,circuit_loss_j,degraded,link_retries,"
         "link_failures,stale_updates\n";
  for (size_t h = 0; h < result.hourly.size(); ++h) {
    const HourlyStats& stats = result.hourly[h];
    out << (h + 1) << "," << stats.load_energy.value() << "," << stats.battery_loss.value()
        << "," << stats.circuit_loss.value() << "," << (stats.degraded ? 1 : 0) << ","
        << stats.link_retries << "," << stats.link_failures << "," << stats.stale_updates
        << "\n";
  }
  if (!WriteTextFile(path, out.str())) {
    return false;
  }
  std::printf("hourly breakdown written to %s\n", path.c_str());
  return true;
}

// Writes the sampled timeline as CSV when the path ends in ".csv", JSON
// otherwise.
bool WriteTimelineFile(const std::string& path, const obs::Timeline& timeline) {
  bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (!WriteTextFile(path, csv ? timeline.ToCsv() : timeline.ToJson() + "\n")) {
    return false;
  }
  std::printf("timeline written to %s (%zu sample(s), period %.0f s)\n",
              path.c_str(), timeline.size(), timeline.period_s());
  return true;
}

// --- Commands -----------------------------------------------------------------

int CmdList(const Args&) {
  TextTable table({"name", "chemistry", "default character"});
  for (const BatteryType& type : kBatteryTypes) {
    table.AddRow({type.name, type.chemistry, type.character});
  }
  table.Print(std::cout);
  std::cout << "capacity suffix: NAME:MAH, e.g. fast:4000\n";
  return 0;
}

int CmdSimulate(const Args& args) {
  std::optional<std::vector<Cell>> cells = BuildCells(args);
  if (!cells.has_value()) {
    return 2;
  }
  std::optional<PowerTrace> load = BuildLoad(args);
  if (!load.has_value()) {
    return 2;
  }
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(*cells), args.seed);
  SdbRuntime runtime(&micro, MakeRuntimeConfig(args));
  obs::Timeline timeline(args.timeline_period_s);
  SimResult result =
      PlayLoad(args, &runtime, *load, args.timeline_out.empty() ? nullptr : &timeline);
  PrintRunSummary(result, micro);

  if (!args.hourly_csv.empty() && !WriteHourlyCsv(args.hourly_csv, result)) {
    return 2;
  }
  if (!args.timeline_out.empty() && !WriteTimelineFile(args.timeline_out, timeline)) {
    return 2;
  }
  return result.first_shortfall.has_value() ? 1 : 0;
}

// Monte-Carlo sweep over per-run seeds: same pack and load, `--runs`
// variations of measurement noise and workload jitter, executed by the
// parallel sweep engine. Results are bit-identical for any --jobs value.
int CmdSweep(const Args& args) {
  // Validate the specs once up front so a typo fails before the sweep starts.
  if (!BuildCells(args).has_value()) {
    return 2;
  }
  std::optional<PowerTrace> load = BuildLoad(args);
  if (!load.has_value()) {
    return 2;
  }
  MonteCarloResult result = RunMonteCarlo(SeededRun(args, *load), args.runs,
                                          {.base_seed = args.seed, .jobs = args.jobs});

  TextTable table({"metric", "mean", "sigma", "min", "max"});
  auto add_stats = [&table](const char* name, const RunningStats& s, int digits) {
    table.AddRow({name, TextTable::Num(s.mean(), digits), TextTable::Num(s.stddev(), digits),
                  TextTable::Num(s.min(), digits), TextTable::Num(s.max(), digits)});
  };
  add_stats("battery life (h)", result.battery_life_h, 3);
  add_stats("delivered (J)", result.delivered_j, 1);
  add_stats("total losses (J)", result.total_loss_j, 1);
  table.Print(std::cout);
  std::printf("%d/%d runs hit a shortfall\n", result.shortfall_runs, result.runs);

  obs::MetricsSnapshot metrics = obs::MetricsRegistry::Global().Snapshot();
  std::printf("sweep engine: %d runs in %llu shard tasks, wall %.2f s, worker wait %.2f s\n",
              result.runs,
              static_cast<unsigned long long>(metrics.counters.at("sdb.sweep.tasks_executed")),
              metrics.gauges.at("sdb.sweep.wall_s"), metrics.gauges.at("sdb.sweep.worker_wait_s"));
  return 0;
}

// Fault-injection run: the `simulate` rig with a fault schedule installed
// on the microcontroller and the runtime talking to it over the framed
// command link (so link faults actually bite). Prints the usual simulation
// summary plus the runtime's resilience counters and the injector's view.
int CmdFaults(const Args& args) {
  std::optional<std::vector<Cell>> cells = BuildCells(args);
  if (!cells.has_value()) {
    return 2;
  }
  if (args.faults.empty()) {
    std::fprintf(stderr, "sdbsim: faults needs at least one --fault spec\n");
    return 2;
  }
  std::optional<PowerTrace> load = BuildLoad(args);
  if (!load.has_value()) {
    return 2;
  }

  FaultPlan plan;
  plan.seed = args.seed;
  for (const std::string& spec : args.faults) {
    auto event = ParseFaultSpec(spec);
    if (!event.has_value()) {
      return 2;
    }
    if (event->battery < -1 || event->battery >= static_cast<int>(cells->size())) {
      std::fprintf(stderr,
                   "sdbsim: fault '%s' targets battery %d of a %zu-battery pack "
                   "(use 0..%zu, or -1 for every battery)\n",
                   spec.c_str(), event->battery, cells->size(), cells->size() - 1);
      return 2;
    }
    plan.Add(*event);
  }

  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(*cells), args.seed);
  // Recovery-enabled supervision: trips walk the trip → cool-down → probe
  // lifecycle instead of latching forever, and the report below prints
  // every transition.
  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  RecoveryConfig recovery;
  recovery.enabled = true;
  SafetySupervisor safety(limits, recovery);
  micro.AttachSafety(&safety);
  // Install before wiring the link: the client attaches the injector that
  // must survive the whole run (so SimConfig.faults stays empty).
  micro.InstallFaults(std::move(plan));
  CommandLinkServer server(&micro);
  CommandLinkClient client(
      [&server](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); });
  client.AttachFaultInjector(micro.fault_injector());

  SdbRuntime runtime(&micro, MakeRuntimeConfig(args));
  runtime.AttachLink(&client);
  std::printf("fault plan: %zu event(s), seed %llu\n", args.faults.size(),
              static_cast<unsigned long long>(args.seed));
  SimResult result = PlayLoad(args, &runtime, *load, nullptr);
  PrintRunSummary(result, micro);

  const ResilienceCounters& res = runtime.resilience();
  std::printf("resilience: %llu retries (%.2f s backoff), %llu hard failures, "
              "%llu stale updates, %llu masked, degraded %llu in / %llu out%s\n",
              static_cast<unsigned long long>(res.link_retries),
              res.backoff_total.value(),
              static_cast<unsigned long long>(res.link_failures),
              static_cast<unsigned long long>(res.stale_updates),
              static_cast<unsigned long long>(res.masked_faults),
              static_cast<unsigned long long>(res.degraded_entries),
              static_cast<unsigned long long>(res.degraded_exits),
              runtime.degraded() ? " (still degraded)" : "");
  FaultInjector* injector = micro.fault_injector();
  std::printf("injector: %llu queries dropped, %llu replies corrupted, "
              "%llu controller reboots\n",
              static_cast<unsigned long long>(injector->dropped_queries()),
              static_cast<unsigned long long>(injector->corrupted_replies()),
              static_cast<unsigned long long>(injector->micro_reboots()));
  std::printf("link: %llu resyncs (boot count %u), %llu replayed commands%s\n",
              static_cast<unsigned long long>(client.resyncs()),
              client.last_boot_count(),
              static_cast<unsigned long long>(server.replayed_commands()),
              micro.awaiting_resync() ? " (still awaiting resync)" : "");

  // Per-battery safety lifecycle: health, typed fault record, counters.
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    std::printf("safety %zu: %s, %llu trip(s), %llu recover(ies)",
                i, std::string(BatteryHealthName(safety.health(i))).c_str(),
                static_cast<unsigned long long>(safety.trip_count(i)),
                static_cast<unsigned long long>(safety.recovery_count(i)));
    const FaultRecord& record = safety.fault(i);
    if (record.kind != FaultKind::kNone) {
      const char* unit = std::holds_alternative<Current>(record.observed)   ? "A"
                         : std::holds_alternative<Voltage>(record.observed) ? "V"
                                                                            : "K";
      std::printf("; active fault %s: observed %.3f %s vs limit %.3f %s",
                  std::string(FaultKindName(record.kind)).c_str(),
                  ReadingValue(record.observed), unit, ReadingValue(record.limit),
                  unit);
    }
    std::printf("\n");
  }
  if (!safety.transitions().empty()) {
    std::printf("lifecycle transitions (%zu, %llu dropped):\n",
                safety.transitions().size(),
                static_cast<unsigned long long>(safety.transitions_dropped()));
    for (const SafetySupervisor::Transition& t : safety.transitions()) {
      std::printf("  %8.1f s  battery %zu  %s -> %s  (%s)\n", t.at.value(), t.battery,
                  std::string(BatteryHealthName(t.from)).c_str(),
                  std::string(BatteryHealthName(t.to)).c_str(),
                  std::string(FaultKindName(t.kind)).c_str());
    }
  }
  if (!args.hourly_csv.empty() && !WriteHourlyCsv(args.hourly_csv, result)) {
    return 2;
  }
  return result.first_shortfall.has_value() ? 1 : 0;
}

// Fills the settings soak and crash share from the flags. Both step at
// Args' 1 s default tick unless --tick says otherwise (their pinned
// fingerprints depend on it). A replan period shorter than the tick is a
// usage error here rather than a failed check in the driver loop.
template <typename HarnessConfig>
bool ConfigureHarness(const Args& args, HarnessConfig* config) {
  config->tick = Seconds(args.tick_s);
  config->runtime_period = Minutes(args.period_min);
  if (config->runtime_period.value() < config->tick.value()) {
    std::fprintf(stderr, "sdbsim: --period %g min is shorter than the %g s tick\n",
                 args.period_min, args.tick_s);
    return false;
  }
  config->base_seed = args.seed;
  config->schedules = args.schedules;
  config->jobs = args.jobs;
  if (args.hours > 0.0) {
    config->horizon = Hours(args.hours);
  }
  return true;
}

// Seeded soak: randomized fault schedules against the recovery rig, with
// the per-tick invariants from src/emu/soak.h checked throughout. Prints a
// per-schedule summary (seeds included, so any line can be replayed with
// --seed) and exits nonzero if any invariant was violated.
int CmdSoak(const Args& args) {
  SoakConfig config;
  if (!ConfigureHarness(args, &config)) {
    return 2;
  }
  std::printf("soak: %d schedule(s), seeds %llu..%llu, horizon %.2f h, "
              "tick %.0f s, jobs %d\n",
              config.schedules, static_cast<unsigned long long>(config.base_seed),
              static_cast<unsigned long long>(config.base_seed + config.schedules - 1),
              ToHours(config.horizon), config.tick.value(), config.jobs);
  SoakReport report = RunSoak(config);

  TextTable table({"seed", "events", "trips", "recov", "reboots", "resyncs",
                   "replays", "share-delta", "violations", "status"});
  for (const SoakScheduleReport& s : report.schedules) {
    uint64_t violations = s.violations.size() + s.violations_dropped;
    std::string status = !s.completed    ? "INCOMPLETE"
                         : violations > 0 ? "VIOLATED"
                         : s.recovered    ? "recovered"
                                          : "UNRECOVERED";
    table.AddRow({std::to_string(s.seed), std::to_string(s.events),
                  std::to_string(s.trips), std::to_string(s.recoveries),
                  std::to_string(s.reboots), std::to_string(s.resyncs),
                  std::to_string(s.replayed_commands),
                  TextTable::Num(s.max_share_delta, 3), std::to_string(violations),
                  status});
  }
  table.Print(std::cout);

  for (const SoakScheduleReport& s : report.schedules) {
    for (const SoakViolation& v : s.violations) {
      std::printf("violation: seed %llu at %.1f s [%s] %s\n",
                  static_cast<unsigned long long>(v.seed), v.time.value(),
                  v.invariant.c_str(), v.detail.c_str());
    }
    if (s.violations_dropped > 0) {
      std::printf("violation: seed %llu: %llu further violation(s) dropped\n",
                  static_cast<unsigned long long>(s.seed),
                  static_cast<unsigned long long>(s.violations_dropped));
    }
  }
  std::printf("soak fingerprint: %016llx (%llu violation(s))\n",
              static_cast<unsigned long long>(report.fingerprint),
              static_cast<unsigned long long>(report.total_violations));
  // Post-mortem: the first violating schedule's own journal (deterministic
  // per seed, independent of --jobs), trigger "soak-violation".
  for (const SoakScheduleReport& s : report.schedules) {
    if (!s.violations.empty() || s.violations_dropped > 0) {
      WriteFlightBundle("soak-violation", s.journal, std::string());
      break;
    }
  }
  return report.ok() ? 0 : 1;
}

// Crash-recovery soak (DESIGN.md §16): every schedule dies at seeded kill
// points (optionally tearing the checkpoint write), warm-restarts from the
// A/B store and must finish bit-identical to its never-crashed baseline.
// With --corpus DIR the command instead walks a committed torn-write corpus
// through the checkpoint store: every damaged slot must be detected and
// every case must still recover from the surviving slot.
int CmdCrash(const Args& args) {
  if (!args.crash_corpus.empty()) {
    StatusOr<std::vector<CorpusCaseResult>> results = ValidateTornCorpus(args.crash_corpus);
    if (!results.ok()) {
      std::fprintf(stderr, "sdbsim: %s\n", results.status().ToString().c_str());
      return 2;
    }
    TextTable table({"case", "detected", "recovered", "detail"});
    int failures = 0;
    for (const CorpusCaseResult& result : *results) {
      table.AddRow({result.name, result.detected ? "yes" : "NO",
                    result.recovered ? "yes" : "NO", result.detail});
      if (!result.ok()) {
        ++failures;
      }
    }
    table.Print(std::cout);
    std::printf("corpus %s: %zu case(s), %d failure(s)\n",
                args.crash_corpus.c_str(), results->size(), failures);
    return failures == 0 ? 0 : 1;
  }

  CrashConfig config;
  if (!ConfigureHarness(args, &config)) {
    return 2;
  }
  config.checkpoint_period = Minutes(args.checkpoint_min);
  config.max_crashes = args.max_crashes;

  std::printf("crash: %d schedule(s), seeds %llu..%llu, horizon %.2f h, "
              "checkpoint every %.1f min, <=%d crash(es)/schedule, jobs %d\n",
              config.schedules, static_cast<unsigned long long>(config.base_seed),
              static_cast<unsigned long long>(config.base_seed + config.schedules - 1),
              ToHours(config.horizon), config.checkpoint_period.value() / 60.0,
              config.max_crashes, config.jobs);
  CrashReport report = RunCrashSoak(config);

  TextTable table({"seed", "planned", "fired", "warm", "cold", "torn", "corrupt",
                   "fallback", "drift", "status"});
  for (const CrashScheduleReport& s : report.schedules) {
    std::string status = !s.completed           ? "INCOMPLETE"
                         : !s.violations.empty() ? "VIOLATED"
                         : s.identical           ? "identical"
                                                 : "DIVERGED";
    table.AddRow({std::to_string(s.seed), std::to_string(s.planned_crashes),
                  std::to_string(s.crashes_fired), std::to_string(s.warm_restarts),
                  std::to_string(s.cold_restarts), std::to_string(s.torn_writes),
                  std::to_string(s.corrupt_slots), std::to_string(s.slot_fallbacks),
                  std::to_string(s.drift_fields), status});
  }
  table.Print(std::cout);

  for (const CrashScheduleReport& s : report.schedules) {
    for (const CrashViolation& v : s.violations) {
      std::printf("violation: seed %llu [%s] %s\n",
                  static_cast<unsigned long long>(v.seed), v.check.c_str(),
                  v.detail.c_str());
    }
    if (s.violations_dropped > 0) {
      std::printf("violation: seed %llu: %llu further violation(s) dropped\n",
                  static_cast<unsigned long long>(s.seed),
                  static_cast<unsigned long long>(s.violations_dropped));
    }
  }
  std::printf("crash fingerprint: %016llx (%llu violation(s))\n",
              static_cast<unsigned long long>(report.fingerprint),
              static_cast<unsigned long long>(report.total_violations));
  // Post-mortem: the first violating schedule's own journal (deterministic
  // per seed, independent of --jobs), trigger "crash-oracle".
  for (const CrashScheduleReport& s : report.schedules) {
    if (!s.violations.empty()) {
      WriteFlightBundle("crash-oracle", s.journal, std::string());
      break;
    }
  }
  return report.ok() ? 0 : 1;
}

// Traced run: plays a scenario with span tracing enabled and exports the
// buffer as Chrome trace-event JSON (loadable in Perfetto/chrome://tracing).
// Phase 1 runs a small Monte-Carlo sweep so shard spans land; phase 2 drives
// the runtime over the framed command link so hw-layer spans fire too.
// Defaults to the paper's §5.2 smartwatch day on the watch pack.
int CmdTrace(const Args& args) {
  if (args.trace_out.empty()) {
    std::fprintf(stderr, "sdbsim: trace needs --trace-out FILE.json\n");
    return 2;
  }

  // Pack: flags win; default is the smartwatch pack (200 mAh rigid Li-ion +
  // 200 mAh bendable).
  Args rig = args;
  if (rig.batteries.empty()) {
    rig.batteries = {"watch:200", "bendable:200"};
  }
  std::optional<std::vector<Cell>> cells = BuildCells(rig);
  if (!cells.has_value()) {
    return 2;
  }
  // Load: flags win; default is the synthetic smartwatch day.
  std::optional<PowerTrace> load;
  if (rig.trace_path.empty() && !(rig.load_watts > 0.0 && rig.hours > 0.0)) {
    SmartwatchDayConfig day;
    day.seed = rig.seed;
    load = MakeSmartwatchDayTrace(day);
  } else if (load = BuildLoad(rig); !load.has_value()) {
    return 2;
  }

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);

  // Phase 1: a small parallel sweep of the scenario — mc spans. Runs first
  // so the linked run's spans (the interesting per-layer detail) are the
  // most recent when the ring evicts.
  RunMonteCarlo(SeededRun(rig, *load), std::min(rig.runs, 8),
                {.base_seed = rig.seed, .jobs = rig.jobs});

  // Phase 2: a single run over the framed command link — core, hw-link and
  // chem spans.
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(*cells), rig.seed);
  CommandLinkServer server(&micro);
  CommandLinkClient client(
      [&server](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); });
  SdbRuntime runtime(&micro, MakeRuntimeConfig(rig));
  runtime.AttachLink(&client);
  SimConfig sim_config = MakeSimConfig(rig);
  sim_config.stop_on_shortfall = false;
  Simulator sim(&runtime, sim_config);
  SimResult result = sim.Run(*load);
  std::printf("traced run: %.2f h simulated; delivered %.1f kJ\n", ToHours(result.elapsed),
              result.delivered.value() / 1000.0);

  tracer.SetEnabled(false);

  // Export, with a per-layer count so the user can see the trace is whole.
  std::ostringstream json;
  ExportChromeTrace(tracer, json);
  if (!WriteTextFile(args.trace_out, json.str())) {
    return 2;
  }
  std::map<std::string, uint64_t> per_layer;
  for (const obs::TraceEvent& event : tracer.Snapshot()) {
    ++per_layer[event.category];
  }
  std::printf("trace written to %s: %llu spans buffered (%llu evicted from ring)\n",
              args.trace_out.c_str(), static_cast<unsigned long long>(tracer.Snapshot().size()),
              static_cast<unsigned long long>(tracer.dropped()));
  for (const auto& [layer, count] : per_layer) {
    std::printf("  layer %-5s %llu spans\n", layer.c_str(),
                static_cast<unsigned long long>(count));
  }
  return 0;
}

int CmdPlanCharge(const Args& args) {
  std::optional<std::vector<Cell>> cells = BuildCells(args);
  if (!cells.has_value()) {
    return 2;
  }
  std::vector<ChargeGoal> goals;
  for (const Cell& cell : *cells) {
    goals.push_back(ChargeGoal{&cell.params(), args.soc >= 0.0 ? args.soc : 0.0, args.target_soc});
  }
  auto plan = PlanCharge(goals, Hours(args.deadline_hours));
  if (!plan.ok()) {
    std::fprintf(stderr, "sdbsim: %s\n", plan.status().ToString().c_str());
    return 2;
  }
  TextTable table({"battery", "rate (C)", "current (A)", "time (min)", "fade (ppm)"});
  for (size_t i = 0; i < plan->entries.size(); ++i) {
    const ChargePlanEntry& e = plan->entries[i];
    table.AddRow({(*cells)[i].params().name, TextTable::Num(e.c_rate, 3),
                  TextTable::Num(e.current.value(), 2),
                  TextTable::Num(ToMinutes(e.time_to_target), 0),
                  TextTable::Num(1e6 * e.predicted_fade, 1)});
  }
  table.Print(std::cout);
  std::printf("completion in %.0f min; needs %.1f W at the wall; %s the %.1f h deadline\n",
              ToMinutes(plan->completion), plan->peak_supply.value(),
              plan->meets_deadline ? "meets" : "MISSES", args.deadline_hours);
  return plan->meets_deadline ? 0 : 1;
}

int CmdPlanDischarge(const Args& args) {
  if (args.batteries.size() != 2) {
    std::fprintf(stderr, "sdbsim: plan-discharge needs exactly two --battery specs\n");
    return 2;
  }
  std::optional<std::vector<Cell>> cells = BuildCells(args);
  if (!cells.has_value()) {
    return 2;
  }
  std::optional<PowerTrace> load = BuildLoad(args);
  if (!load.has_value()) {
    return 2;
  }
  const Cell& a = (*cells)[0];
  const Cell& b = (*cells)[1];
  PlanResult plan = PlanOptimalDischarge({&a.params(), a.soc()}, {&b.params(), b.soc()}, *load);
  std::printf("offline-optimal plan: %.2f h serviced (%s), predicted loss %.1f J\n",
              ToHours(plan.serviced), plan.full_trace_served ? "full trace" : "partial",
              plan.predicted_loss.value());
  // Summarise the schedule in quarters of the serviced window.
  if (!plan.share_schedule.empty()) {
    size_t n = plan.share_schedule.size();
    for (int q = 0; q < 4; ++q) {
      size_t lo = q * n / 4;
      size_t hi = std::max(lo + 1, (q + 1) * n / 4);
      double sum = 0.0;
      for (size_t i = lo; i < hi; ++i) {
        sum += plan.share_schedule[i];
      }
      std::printf("  quarter %d: battery A carries %.0f%% of the load\n", q + 1,
                  100.0 * sum / static_cast<double>(hi - lo));
    }
  }
  return plan.full_trace_served ? 0 : 1;
}

// --- Scenario packs (`workload`) ---------------------------------------------

// Parses the --param NAME=VALUE overrides into a PackParams map.
std::optional<PackParams> ParseParamOverrides(const Args& args) {
  PackParams overrides;
  for (const std::string& spec : args.params) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "sdbsim: --param wants NAME=VALUE, got '%s'\n", spec.c_str());
      return std::nullopt;
    }
    const std::string name = spec.substr(0, eq);
    if (!ParseNumber("--param " + name, spec.substr(eq + 1), &overrides[name])) {
      return std::nullopt;
    }
  }
  return overrides;
}

int ListPacks() {
  TextTable table({"pack", "params", "description"});
  for (const ScenarioPack& pack : ScenarioPacks()) {
    table.AddRow({pack.name, std::to_string(pack.params.size()), pack.description});
  }
  table.Print(std::cout);
  std::cout << "parameters: sdbsim workload PACK --list\n";
  return 0;
}

int ListPackParams(const ScenarioPack& pack) {
  std::printf("%s: %s\n", pack.name.c_str(), pack.description.c_str());
  TextTable table({"param", "default", "min", "max", "description"});
  for (const PackParamSpec& spec : pack.params) {
    table.AddRow({spec.name, TextTable::Num(spec.default_value, 3),
                  TextTable::Num(spec.min_value, 3), TextTable::Num(spec.max_value, 3),
                  spec.description});
  }
  table.Print(std::cout);
  return 0;
}

int CmdWorkload(const Args& args) {
  if (args.pack_name.empty()) {
    if (args.list_packs) {
      return ListPacks();
    }
    std::fprintf(stderr, "sdbsim: workload needs a pack name; registered packs:\n");
    ListPacks();
    return 2;
  }
  const ScenarioPack* pack = FindScenarioPack(args.pack_name);
  if (pack == nullptr) {
    std::fprintf(stderr, "sdbsim: unknown pack '%s'; registered packs:\n",
                 args.pack_name.c_str());
    ListPacks();
    return 2;
  }
  if (args.list_packs) {
    return ListPackParams(*pack);
  }
  std::optional<PackParams> overrides = ParseParamOverrides(args);
  if (!overrides.has_value()) {
    return 2;
  }
  // Optional external-trace substitution for the pack's synthetic load.
  std::optional<PowerTrace> substituted;
  if (!args.trace_path.empty() && !(substituted = ReadTrace(args.trace_path)).has_value()) {
    return 2;
  }
  StatusOr<ScenarioSpec> expanded =
      ExpandScenario(args.pack_name, *overrides, args.seed,
                     substituted.has_value() ? &*substituted : nullptr);
  if (!expanded.ok()) {
    std::fprintf(stderr, "sdbsim: %s\n", expanded.status().ToString().c_str());
    return 2;
  }
  ScenarioSpec spec = *std::move(expanded);
  obs::Timeline timeline(args.timeline_period_s);
  if (!args.timeline_out.empty()) {
    spec.sim.timeline = &timeline;
  }
  std::printf("pack %s (seed %llu): %zu batteries, load %.2f h / peak %.2f W / "
              "%.1f kJ%s, envelope %.2f W\n",
              spec.pack.c_str(), static_cast<unsigned long long>(spec.seed),
              spec.batteries.size(), ToHours(spec.load.TotalDuration()),
              spec.load.PeakPower().value(), spec.load.TotalEnergy().value() / 1000.0,
              substituted.has_value() ? " (substituted trace)" : "",
              spec.envelope.value());
  for (size_t i = 0; i < spec.batteries.size(); ++i) {
    std::printf("  battery %zu: %s, %.0f mAh, initial SoC %.0f%%\n", i,
                spec.batteries[i].name.c_str(),
                1000.0 * ToAmpHours(spec.batteries[i].nominal_capacity),
                100.0 * spec.initial_soc[i]);
  }
  if (!args.export_trace.empty()) {
    Status written = WritePowerTraceFile(spec.load, args.export_trace);
    if (!written.ok()) {
      std::fprintf(stderr, "sdbsim: %s\n", written.ToString().c_str());
      return 2;
    }
    std::printf("load trace written to %s\n", args.export_trace.c_str());
  }

  SimResult result = RunScenario(spec);
  std::printf("simulated %.2f h; delivered %.1f kJ; losses %.1f J battery + %.1f J "
              "circuit; charged %.1f kJ\n",
              ToHours(result.elapsed), result.delivered.value() / 1000.0,
              result.battery_loss.value(), result.circuit_loss.value(),
              result.charged.value() / 1000.0);
  if (result.first_shortfall.has_value()) {
    std::printf("load first unmet at %.2f h\n", ToHours(*result.first_shortfall));
  } else {
    std::printf("load fully served\n");
  }
  for (size_t i = 0; i < result.final_soc.size(); ++i) {
    std::printf("battery %zu (%s): final SoC %.1f%%\n", i,
                spec.batteries[i].name.c_str(), 100.0 * result.final_soc[i]);
  }
  if (!args.hourly_csv.empty() && !WriteHourlyCsv(args.hourly_csv, result)) {
    return 2;
  }
  if (!args.timeline_out.empty() && !WriteTimelineFile(args.timeline_out, timeline)) {
    return 2;
  }
  return result.first_shortfall.has_value() ? 1 : 0;
}

// --- Scenario fuzzer (`fuzz`) ------------------------------------------------

void PrintFuzzReport(const FuzzReport& report) {
  TextTable table({"case", "seed", "pack", "faults", "violations", "shrink", "status"});
  for (size_t i = 0; i < report.cases.size(); ++i) {
    const FuzzCaseReport& c = report.cases[i];
    table.AddRow({std::to_string(i), std::to_string(c.sampled.seed), c.sampled.pack,
                  std::to_string(c.sampled.faults.events.size()),
                  std::to_string(c.violations.size()), std::to_string(c.shrink_steps),
                  c.failed ? "FAILED" : "ok"});
  }
  table.Print(std::cout);
  for (const FuzzCaseReport& c : report.cases) {
    for (const FuzzViolation& v : c.violations) {
      std::printf("violation: seed %llu at %.1f s [%s] %s\n",
                  static_cast<unsigned long long>(c.sampled.seed), v.time.value(),
                  v.oracle.c_str(), v.detail.c_str());
    }
    if (c.failed) {
      std::printf("reproducer: %s\n", c.reproducer.c_str());
    }
  }
  std::printf("fuzz fingerprint: %016llx (%llu failing case(s))\n",
              static_cast<unsigned long long>(report.fingerprint),
              static_cast<unsigned long long>(report.failures));
}

int CmdFuzz(const Args& args) {
  FuzzConfig config;
  config.master_seed = args.seed;
  config.cases = args.cases;
  config.jobs = args.jobs;
  config.fault_probability = args.fault_prob;
  config.max_lifetime_loss_fraction = args.max_loss_pct / 100.0;
  config.shrink = !args.no_shrink;
  if (args.hours > 0.0) {
    config.horizon_cap = Hours(args.hours);
  }
  if (Status settings = CheckFuzzSettings(config); !settings.ok()) {
    std::fprintf(stderr, "sdbsim: %s\n", settings.ToString().c_str());
    return 2;
  }
  if (!args.packs_csv.empty()) {
    config.packs = Split(args.packs_csv, ',');
  }

  FuzzReport report;
  if (!args.replay_path.empty()) {
    std::ifstream in(args.replay_path);
    if (!in) {
      std::fprintf(stderr, "sdbsim: cannot open corpus '%s'\n", args.replay_path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    StatusOr<std::vector<FuzzCase>> corpus = ParseFuzzCorpus(text.str());
    if (!corpus.ok()) {
      std::fprintf(stderr, "sdbsim: %s\n", corpus.status().ToString().c_str());
      return 2;
    }
    if (corpus->empty()) {
      std::fprintf(stderr, "sdbsim: corpus '%s' has no cases\n", args.replay_path.c_str());
      return 2;
    }
    std::printf("fuzz replay: %zu case(s) from %s, jobs %d\n", corpus->size(),
                args.replay_path.c_str(), config.jobs);
    report = ReplayFuzzCases(*corpus, config);
  } else {
    std::printf("fuzz: %d case(s), master seed %llu, jobs %d, fault-prob %.2f, "
                "max-loss %.0f%%, horizon cap %.2f h\n",
                config.cases, static_cast<unsigned long long>(config.master_seed),
                config.jobs, config.fault_probability, args.max_loss_pct,
                ToHours(config.horizon_cap));
    StatusOr<FuzzReport> swept = RunFuzz(config);
    if (!swept.ok()) {
      std::fprintf(stderr, "sdbsim: %s\n", swept.status().ToString().c_str());
      return 2;
    }
    report = *std::move(swept);
  }
  PrintFuzzReport(report);

  if (!args.corpus_out.empty()) {
    std::vector<std::string> reproducers;
    for (const FuzzCaseReport& c : report.cases) {
      if (c.failed) {
        reproducers.push_back(c.reproducer);
      }
    }
    if (!WriteTextFile(args.corpus_out, FormatFuzzCorpus(reproducers))) {
      return 2;
    }
    std::printf("corpus: %zu failing reproducer(s) written to %s\n", reproducers.size(),
                args.corpus_out.c_str());
  }
  // Post-mortem: the first failing case's own journal and reproducer
  // (deterministic per case, independent of --jobs), trigger "fuzz-oracle".
  for (const FuzzCaseReport& c : report.cases) {
    if (c.failed) {
      WriteFlightBundle("fuzz-oracle", c.journal, c.reproducer);
      break;
    }
  }
  return report.ok() ? 0 : 1;
}

// --- Bundle inspector (`blackbox`) -------------------------------------------

int CmdBlackbox(const Args& args) {
  if (args.pack_name.empty()) {
    std::fprintf(stderr, "sdbsim: blackbox needs a bundle directory\n");
    return 2;
  }
  // Filters: --kind by kebab-case kind name, --battery by index (the flag
  // is shared with the rig commands; here its value is a bare index).
  std::optional<int> battery_filter;
  if (!args.batteries.empty() &&
      !ParseInt("blackbox --battery", args.batteries.front(), kAnyInt, &battery_filter.emplace())) {
    return 2;
  }
  obs::PostmortemManifest manifest;
  std::string error = obs::ReadPostmortemManifest(args.pack_name, &manifest);
  if (!error.empty()) {
    std::fprintf(stderr, "sdbsim: %s\n", error.c_str());
    return 2;
  }
  std::printf("bundle %s\n", args.pack_name.c_str());
  std::printf("  tool           %s\n", manifest.tool.c_str());
  std::printf("  trigger        %s\n", manifest.trigger.c_str());
  std::printf("  git sha        %s\n", manifest.git_sha.c_str());
  std::printf("  seed           %llu\n",
              static_cast<unsigned long long>(manifest.seed));
  std::printf("  jobs           %d\n", manifest.jobs);
  std::printf("  config digest  %s\n", manifest.config_digest.c_str());
  if (!manifest.reproducer.empty()) {
    std::printf("  reproducer     %s\n", manifest.reproducer.c_str());
  }

  std::vector<obs::JournalEvent> events;
  size_t skipped = 0;
  error = obs::ReadPostmortemEvents(args.pack_name, &events, &skipped);
  if (!error.empty()) {
    std::fprintf(stderr, "sdbsim: %s\n", error.c_str());
    return 2;
  }
  TextTable table({"seq", "t_s", "kind", "battery", "what", "value", "limit", "detail"});
  size_t shown = 0;
  for (const obs::JournalEvent& event : events) {
    if (!args.kind_filter.empty() && args.kind_filter != obs::EventKindName(event.kind)) {
      continue;
    }
    if (battery_filter.has_value() && event.battery != *battery_filter) {
      continue;
    }
    table.AddRow({std::to_string(event.seq), obs::JsonNumber(event.t_s),
                  obs::EventKindName(event.kind), std::to_string(event.battery),
                  event.what, obs::JsonNumber(event.value),
                  obs::JsonNumber(event.limit), event.detail});
    ++shown;
  }
  table.Print(std::cout);
  std::printf("%zu/%zu event(s) shown (%zu malformed line(s) skipped)\n", shown,
              events.size(), skipped);
  if (skipped > 0) {
    std::fprintf(stderr, "sdbsim: bundle %s holds %zu malformed event line(s)\n",
                 args.pack_name.c_str(), skipped);
    return 1;  // The bundle rendered, but it is damaged — say so loudly.
  }
  return 0;
}

// --- Command registry ---------------------------------------------------------
//
// One entry per subcommand; the overview table, the detailed usage text and
// the dispatch in main() are all generated from this list, so a new command
// cannot be added without showing up in `sdbsim` / `sdbsim help`.

int CmdHelp(const Args& args);

struct CommandInfo {
  const char* name;
  const char* summary;  // One line for the generated overview table.
  const char* usage;    // Flag detail, printed under the overview.
  int (*handler)(const Args& args);
};

const CommandInfo kCommands[] = {
    {"list", "print the battery registry (names for --battery specs)",
     "  sdbsim list\n", CmdList},
    {"simulate", "play a load (constant or CSV trace) through one rig",
     "  sdbsim simulate (--battery NAME[:MAH] [--battery ...] | --pack FILE)\n"
     "         (--load-watts W --hours H | --trace FILE.csv)\n"
     "         [--supply-watts W] [--soc F] [--tick S]\n"
     "         [--discharge-directive F] [--charge-directive F]\n"
     "         [--hourly-csv OUT.csv] [--seed N]\n"
     "         [--timeline-out OUT.csv|OUT.json] [--timeline-period S]\n",
     CmdSimulate},
    {"workload", "expand and run a named scenario pack",
     "  sdbsim workload [PACK] [--list] [--param NAME=VALUE ...] [--seed N]\n"
     "         [--trace FILE.csv] [--export-trace OUT.csv] [--hourly-csv OUT.csv]\n"
     "         [--timeline-out OUT.csv|OUT.json] [--timeline-period S]\n"
     "         (--list alone tabulates the packs; with PACK it tabulates the\n"
     "          pack's parameters; --trace substitutes an external CSV power\n"
     "          trace for the pack's synthetic load)\n",
     CmdWorkload},
    {"fuzz", "seeded scenario fuzzer over pack x params x policy x faults",
     "  sdbsim fuzz [--seed N] [--cases N] [--jobs N] [--packs A,B,..]\n"
     "         [--fault-prob F] [--max-loss-pct PCT] [--hours H] [--no-shrink]\n"
     "         [--corpus-out FILE] [--replay FILE]\n"
     "         (failing cases shrink to one-line reproducers; --corpus-out\n"
     "          saves them and --replay re-runs a saved corpus; exit 1 on any\n"
     "          oracle violation)\n",
     CmdFuzz},
    {"sweep", "Monte-Carlo sweep over per-run seeds",
     "  sdbsim sweep (--battery NAME[:MAH] [--battery ...] | --pack FILE)\n"
     "         (--load-watts W --hours H | --trace FILE.csv)\n"
     "         [--runs N] [--jobs N] [--seed N] [--soc F] [--tick S]\n"
     "         [--discharge-directive F] [--charge-directive F]\n",
     CmdSweep},
    {"faults", "one run with an explicit fault schedule installed",
     "  sdbsim faults (--battery NAME[:MAH] [--battery ...] | --pack FILE)\n"
     "         (--load-watts W --hours H | --trace FILE.csv)\n"
     "         --fault KIND:START_H:END_H[:BATTERY[:MAGNITUDE[:PROB]]] [--fault ...]\n"
     "         [--supply-watts W] [--soc F] [--tick S] [--seed N]\n"
     "         [--discharge-directive F] [--charge-directive F]\n"
     "         kinds: link-timeout link-corrupt-reply gauge-bias gauge-noise\n"
     "                gauge-stuck regulator-collapse open-circuit thermal-trip\n"
     "                micro-crash micro-brownout\n"
     "         (BATTERY -1 = all; thermal-trip MAGNITUDE in deg C)\n",
     CmdFaults},
    {"soak", "randomized fault schedules with per-tick invariants",
     "  sdbsim soak [--seed N] [--schedules N] [--hours H] [--jobs N]\n"
     "         [--tick S (default 1)] [--period MIN (>= the tick, default 10)]\n"
     "         (randomized fault schedules on the recovery rig;\n"
     "          per-tick invariants; exit 1 on any violation)\n",
     CmdSoak},
    {"crash", "crash-recovery soak: seeded kill points + torn checkpoint writes",
     "  sdbsim crash [--seed N] [--schedules N] [--hours H] [--jobs N]\n"
     "         [--tick S (default 1)] [--period MIN (>= the tick, default 10)]\n"
     "         [--checkpoint-period MIN] [--max-crashes N]\n"
     "  sdbsim crash --corpus DIR\n"
     "         (every schedule dies at seeded kill points, warm-restarts from\n"
     "          the A/B checkpoint store and must finish bit-identical to its\n"
     "          never-crashed baseline; --corpus instead validates a committed\n"
     "          torn-write corpus — every damaged slot detected AND recovered;\n"
     "          exit 1 on any violation)\n",
     CmdCrash},
    {"trace", "traced run exported as Chrome trace-event JSON",
     "  sdbsim trace --trace-out RUN.json [--metrics-out METRICS.json]\n"
     "         [--battery NAME[:MAH] ... | --pack FILE]\n"
     "         [--load-watts W --hours H | --trace FILE.csv]\n"
     "         [--soc F] [--tick S] [--seed N] [--runs N] [--jobs N]\n"
     "         (defaults: smartwatch pack + synthetic watch day;\n"
     "          open RUN.json in https://ui.perfetto.dev)\n",
     CmdTrace},
    {"plan-charge", "offline charge plan toward a deadline",
     "  sdbsim plan-charge --battery NAME[:MAH] [--battery ...]\n"
     "         --soc F --deadline-hours H [--target-soc F]\n",
     CmdPlanCharge},
    {"plan-discharge", "offline-optimal two-battery discharge plan",
     "  sdbsim plan-discharge --battery A --battery B\n"
     "         (--load-watts W --hours H | --trace FILE.csv) [--soc F]\n",
     CmdPlanDischarge},
    {"blackbox", "inspect a --flight-out post-mortem bundle",
     "  sdbsim blackbox DIR [--kind KIND] [--battery N]\n"
     "         (prints the bundle's manifest and recorded events; --kind\n"
     "          filters by kebab-case event kind, --battery by battery index)\n",
     CmdBlackbox},
    {"help", "print this overview", "  sdbsim help\n", CmdHelp},
};

void PrintUsage() {
  TextTable table({"command", "does"});
  for (const CommandInfo& command : kCommands) {
    table.AddRow({command.name, command.summary});
  }
  std::ostringstream overview;
  table.Print(overview);
  std::fprintf(stderr, "sdbsim — command-line driver for the SDB stack\n\n%s\nusage:\n",
               overview.str().c_str());
  for (const CommandInfo& command : kCommands) {
    std::fprintf(stderr, "%s", command.usage);
  }
  std::fprintf(stderr,
               "  any command also accepts --metrics-out METRICS.json and\n"
               "  --flight-out DIR (write a post-mortem bundle; see blackbox)\n");
}

int CmdHelp(const Args&) {
  PrintUsage();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    PrintUsage();
    return 2;
  }
  // A malformed worker-count override is a usage error, like a bad --jobs.
  if (sdb::Status threads = sdb::ThreadPool::ValidateThreadsEnv(); !threads.ok()) {
    std::fprintf(stderr, "sdbsim: %s\n", threads.message().c_str());
    return 2;
  }
  const CommandInfo* command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&args](const CommandInfo& c) { return args->command == c.name; });
  if (command == std::end(kCommands)) {
    std::fprintf(stderr, "sdbsim: unknown command '%s'\n", args->command.c_str());
    PrintUsage();
    return 2;
  }
  // --flight-out: install a process journal on the main thread plus the
  // SDB_CHECK crash hook; the config digest covers the exact flag line.
  FlightContext flight;
  std::optional<sdb::obs::JournalScope> flight_scope;
  if (!args->flight_out.empty() && args->command != "blackbox") {
    flight.dir = args->flight_out;
    flight.tool = std::string("sdbsim ") + args->command;
    flight.seed = args->seed;
    flight.jobs = args->jobs;
    std::ostringstream config_text;
    for (int i = 1; i < argc; ++i) {
      config_text << (i > 1 ? " " : "") << argv[i];
    }
    flight.config_digest = sdb::obs::DigestConfig(config_text.str());
    g_flight = &flight;
    flight_scope.emplace(&flight.journal);
    sdb::SetCheckFailureHandler(FlightCheckFailureHandler);
  }
  int rc = command->handler(*args);
  if (g_flight != nullptr) {
    if (!flight.written) {
      // Nothing harness-specific fired: dump the process journal, flagging
      // a safety trip when the run recorded one.
      std::vector<sdb::obs::JournalEvent> events = flight.journal.Snapshot();
      std::string trigger = "none";
      for (const sdb::obs::JournalEvent& event : events) {
        if (event.kind == sdb::obs::EventKind::kSafetyTrip) {
          trigger = "safety-trip";
          break;
        }
      }
      WriteFlightBundle(trigger, events, std::string());
    }
    sdb::SetCheckFailureHandler(nullptr);
    g_flight = nullptr;
    if (flight.failed && rc == 0) {
      rc = 2;  // --flight-out was requested but no bundle landed on disk.
    }
  }
  // Any command can dump the process-wide metrics registry on exit.
  if (!args->metrics_out.empty()) {
    if (!WriteTextFile(args->metrics_out, sdb::obs::MetricsRegistry::Global().ToJson() + "\n")) {
      return 2;
    }
    std::printf("metrics written to %s\n", args->metrics_out.c_str());
  }
  return rc;
}
