#include "src/emu/scenario_pack.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/chem/library.h"
#include "src/core/runtime.h"
#include "src/emu/workload.h"
#include "src/hw/microcontroller.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace sdb {

namespace {

// Resolved-parameter lookup; ResolvePackParams guarantees presence, so a
// miss here is a programming error in an expander.
double P(const PackParams& params, const char* name) {
  auto it = params.find(name);
  SDB_CHECK(it != params.end());
  return it->second;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t h = seed ^ (salt + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
  return h;
}

// Sustained-load envelope: what the pack can serve indefinitely with 20%
// margin. The fuzzer's safety oracle only applies to loads inside this.
Power DeriveEnvelope(const std::vector<BatteryParams>& batteries) {
  Power envelope = Watts(0.0);
  for (const BatteryParams& params : batteries) {
    envelope += Watts(0.8 * params.max_discharge_current.value() *
                      params.nominal_voltage.value());
  }
  return envelope;
}

void FinishSpec(ScenarioSpec& spec) {
  spec.envelope = DeriveEnvelope(spec.batteries);
  // Let the trace, not the driver default, bound the run (week-long packs
  // exceed the 72 h default cap).
  spec.sim.max_duration = spec.load.TotalDuration() + spec.sim.tick;
  spec.sim.stop_on_shortfall = false;
}

// --- smartwatch-day (paper §5.2, Fig. 13) -----------------------------------

ScenarioSpec ExpandSmartwatchDay(const PackParams& params, uint64_t seed) {
  ScenarioSpec spec;
  spec.pack = "smartwatch-day";
  spec.seed = seed;
  Charge capacity = MilliAmpHours(P(params, "capacity_mah"));
  spec.batteries.push_back(MakeWatchLiIon(capacity));
  spec.batteries.push_back(MakeType4Bendable(capacity, 0));
  spec.initial_soc = {1.0, 1.0};

  double days = P(params, "days");
  SmartwatchDayConfig day;
  day.idle = MilliWatts(P(params, "idle_mw"));
  day.checks_per_hour = static_cast<int>(P(params, "checks_per_hour"));
  day.run_duration = Hours(P(params, "run_hours"));
  const int whole_days = static_cast<int>(std::ceil(days));
  for (int d = 0; d < whole_days; ++d) {
    day.seed = MixSeed(seed, 0x5A7C4DA1ULL + static_cast<uint64_t>(d));
    AppendSmartwatchDay(day, &spec.load);
  }
  spec.sim.tick = Seconds(10.0);
  spec.sim.runtime_period = Minutes(5.0);
  FinishSpec(spec);
  // Fractional final day: cap the horizon, keep the trace.
  spec.sim.max_duration = Days(days) + spec.sim.tick;
  return spec;
}

// --- fastcharge-tablet (paper §5.1, Fig. 11) --------------------------------

ScenarioSpec ExpandFastchargeTablet(const PackParams& params, uint64_t seed) {
  ScenarioSpec spec;
  spec.pack = "fastcharge-tablet";
  spec.seed = seed;
  Charge capacity = MilliAmpHours(P(params, "capacity_mah"));
  spec.batteries.push_back(MakeFastChargeTablet(capacity));
  spec.batteries.push_back(MakeHighEnergyTablet(capacity));
  spec.initial_soc = {P(params, "initial_soc"), P(params, "initial_soc")};

  Duration horizon = Hours(P(params, "hours"));
  spec.load = MakeBurstyTrace(Watts(P(params, "load_w")),
                              Watts(2.0 * P(params, "load_w")), 0.25, horizon,
                              Minutes(1.0), MixSeed(seed, 0xFA57C4A6ULL));
  // The wall supply plugs in at supply_start_h: the pack carries the load
  // alone until then, so the charge phase starts mid-run (and charge-phase
  // faults have a window that is not the whole trace). 0 = plugged in from
  // the start, the historical shape.
  const Duration supply_start =
      Hours(std::min(P(params, "supply_start_h"), P(params, "hours")));
  PowerTrace supply;
  if (supply_start.value() > 0.0) {
    supply.Append(supply_start, Watts(0.0));
  }
  if (horizon.value() > supply_start.value()) {
    supply.Append(horizon - supply_start, Watts(P(params, "supply_w")));
  }
  spec.supply = std::move(supply);
  spec.sim.tick = Seconds(5.0);
  spec.sim.runtime_period = Minutes(1.0);
  FinishSpec(spec);
  return spec;
}

// --- phone-day (paper §4.3's Snapdragon 800 device) -------------------------

ScenarioSpec ExpandPhoneDay(const PackParams& params, uint64_t seed) {
  ScenarioSpec spec;
  spec.pack = "phone-day";
  spec.seed = seed;
  Charge capacity = MilliAmpHours(P(params, "capacity_mah"));
  spec.batteries.push_back(MakeType2Standard(capacity, 0));
  spec.batteries.push_back(MakeFastChargeTablet(MilliAmpHours(
      std::max(100.0, 0.25 * P(params, "capacity_mah")))));
  spec.initial_soc = {1.0, 1.0};

  double days = P(params, "days");
  const int whole_days = static_cast<int>(std::ceil(days));
  for (int d = 0; d < whole_days; ++d) {
    AppendPhoneDay(MixSeed(seed, 0x0DA1ULL + static_cast<uint64_t>(d)), P(params, "scale"),
                   &spec.load);
  }
  spec.sim.tick = Seconds(10.0);
  spec.sim.runtime_period = Minutes(5.0);
  FinishSpec(spec);
  return spec;
}

// --- twoin1-docking-week (paper §5.3 grown to a docked work week) -----------

ScenarioSpec ExpandTwoInOneDockingWeek(const PackParams& params, uint64_t seed) {
  ScenarioSpec spec;
  spec.pack = "twoin1-docking-week";
  spec.seed = seed;
  Charge capacity = MilliAmpHours(P(params, "capacity_mah"));
  spec.batteries.push_back(MakeTwoInOneInternal(capacity));
  spec.batteries.push_back(MakeTwoInOneExternal(capacity));
  spec.initial_soc = {1.0, 1.0};

  Rng rng(MixSeed(seed, 0xD0C10ULL));
  const int days = static_cast<int>(P(params, "days"));
  const double work_hours = P(params, "work_hours");
  const double evening_hours = P(params, "evening_hours");
  Power active = Watts(P(params, "active_w"));
  Power dock = Watts(P(params, "dock_w"));
  PowerTrace load;
  PowerTrace supply;
  for (int d = 0; d < days; ++d) {
    // Morning on battery: light use from 8:00, docked 9:00..9+work_hours,
    // evening use, then overnight idle. Minute-level jitter on activity.
    auto span = [&](double hours, Power mean_load, Power mean_supply) {
      if (hours <= 0.0) {
        return;
      }
      const int minutes = std::max(1, static_cast<int>(hours * 60.0));
      for (int m = 0; m < minutes; ++m) {
        double jitter = 1.0 + rng.Uniform(-0.15, 0.15);
        load.Append(Minutes(1.0), Watts(std::max(0.5, mean_load.value() * jitter)));
      }
      if (supply.TotalDuration().value() < load.TotalDuration().value()) {
        supply.Append(Hours(hours), mean_supply);
      }
    };
    span(1.0, Watts(0.6 * active.value()), Watts(0.0));   // Undocked morning.
    span(work_hours, active, dock);                       // Docked work block.
    span(evening_hours, Watts(0.7 * active.value()), Watts(0.0));
    double idle_hours = 24.0 - 1.0 - work_hours - evening_hours;
    span(std::max(0.0, idle_hours), Watts(1.0), Watts(0.0));
  }
  spec.load = std::move(load);
  spec.supply = std::move(supply);
  spec.sim.tick = Seconds(30.0);
  spec.sim.runtime_period = Minutes(10.0);
  FinishSpec(spec);
  return spec;
}

// --- ambient-sensor-nimh (arXiv 0802.3053) ----------------------------------

ScenarioSpec ExpandAmbientSensorNiMh(const PackParams& params, uint64_t seed) {
  ScenarioSpec spec;
  spec.pack = "ambient-sensor-nimh";
  spec.seed = seed;
  spec.batteries.push_back(MakeNiMhAmbient(MilliAmpHours(P(params, "capacity_mah"))));
  spec.batteries.push_back(
      MakeNiMhAmbient(MilliAmpHours(2.0 * P(params, "capacity_mah"))));
  spec.initial_soc = {0.9, 0.9};

  Rng rng(MixSeed(seed, 0xA3B1E47ULL));
  Duration horizon = Days(P(params, "days"));
  Duration period = Seconds(P(params, "period_s"));
  Duration burst = Seconds(std::min(P(params, "burst_s"), P(params, "period_s")));
  Power idle = MilliWatts(P(params, "idle_mw"));
  PowerTrace load;
  double elapsed = 0.0;
  while (elapsed < horizon.value()) {
    // Sense/transmit burst with amplitude jitter, then the idle floor.
    double jitter = 1.0 + rng.Uniform(-0.2, 0.2);
    load.Append(burst, MilliWatts(P(params, "burst_mw") * jitter) + idle);
    double rest = std::min(period.value() - burst.value(),
                           horizon.value() - elapsed - burst.value());
    if (rest > 0.0) {
      load.Append(Seconds(rest), idle);
    }
    elapsed += period.value();
  }
  spec.load = std::move(load);
  spec.sim.tick = Seconds(5.0);
  spec.sim.runtime_period = Minutes(10.0);
  FinishSpec(spec);
  return spec;
}

// --- harvest-dual (arXiv 1801.03813) ----------------------------------------

ScenarioSpec ExpandHarvestDual(const PackParams& params, uint64_t seed) {
  ScenarioSpec spec;
  spec.pack = "harvest-dual";
  spec.seed = seed;
  Charge capacity = MilliAmpHours(P(params, "capacity_mah"));
  spec.batteries.push_back(MakeType2Standard(capacity, 0));
  spec.batteries.push_back(MakeType2Standard(capacity, 1));
  spec.initial_soc = {0.6, 0.6};

  Rng rng(MixSeed(seed, 0x4A97E57ULL));
  Duration horizon = Hours(P(params, "hours"));
  Duration cycle = Minutes(P(params, "cycle_min"));
  const double tx_duty = P(params, "tx_duty");
  const double harvest_duty = P(params, "harvest_duty");
  Power idle = Watts(0.05);
  PowerTrace load;
  PowerTrace supply;
  double elapsed = 0.0;
  while (elapsed < horizon.value()) {
    double span = std::min(cycle.value(), horizon.value() - elapsed);
    // Transmission window at the front of each duty cycle.
    double tx_s = span * tx_duty;
    double tx_jitter = 1.0 + rng.Uniform(-0.25, 0.25);
    if (tx_s > 0.0) {
      load.Append(Seconds(tx_s), Watts(P(params, "tx_w") * tx_jitter) + idle);
    }
    if (span - tx_s > 0.0) {
      load.Append(Seconds(span - tx_s), idle);
    }
    // Harvest window at the back (the alternating-battery rhythm of the
    // dual-battery paper: one battery charges while the other serves).
    double harvest_s = span * harvest_duty;
    double harvest_jitter = 1.0 + rng.Uniform(-0.4, 0.2);
    if (span - harvest_s > 0.0) {
      supply.Append(Seconds(span - harvest_s), Watts(0.0));
    }
    if (harvest_s > 0.0) {
      supply.Append(Seconds(harvest_s),
                    Watts(std::max(0.0, P(params, "harvest_w") * harvest_jitter)));
    }
    elapsed += span;
  }
  spec.load = std::move(load);
  spec.supply = std::move(supply);
  spec.sim.tick = Seconds(5.0);
  spec.sim.runtime_period = Minutes(5.0);
  FinishSpec(spec);
  return spec;
}

// --- ev-burst (EV-like high-C bursts on power cells) ------------------------

ScenarioSpec ExpandEvBurst(const PackParams& params, uint64_t seed) {
  ScenarioSpec spec;
  spec.pack = "ev-burst";
  spec.seed = seed;
  Charge capacity = MilliAmpHours(P(params, "capacity_mah"));
  spec.batteries.push_back(MakeType1PowerCell(capacity));
  spec.batteries.push_back(MakeType1PowerCell(capacity));
  spec.initial_soc = {0.95, 0.95};

  Rng rng(MixSeed(seed, 0xE7B0457ULL));
  Duration horizon = Hours(P(params, "hours"));
  const double burst_every = P(params, "burst_every_s");
  const double burst_len = std::min(P(params, "burst_s"), burst_every);
  PowerTrace load;
  PowerTrace supply;
  double elapsed = 0.0;
  bool spiked = false;
  while (elapsed < horizon.value()) {
    double span = std::min(burst_every, horizon.value() - elapsed);
    double cruise_jitter = 1.0 + rng.Uniform(-0.1, 0.1);
    double accel = std::min(burst_len, span);
    // Acceleration burst, cruise, and optional regen feed-in after the burst.
    // The jitter draw stays unconditional so spike_w never shifts the RNG
    // stream: with spike_w=0 the trace is bit-identical to the historical one.
    double burst_w =
        P(params, "burst_w") * (1.0 + rng.Uniform(-0.15, 0.15));
    if (!spiked && P(params, "spike_w") > 0.0 &&
        elapsed >= 0.5 * horizon.value()) {
      // Trip bait: one mid-drive burst swaps in spike_w, typically well past
      // the pack envelope, to exercise the safety supervisor's trip path.
      burst_w = P(params, "spike_w");
      spiked = true;
    }
    load.Append(Seconds(accel), Watts(burst_w));
    if (span - accel > 0.0) {
      load.Append(Seconds(span - accel),
                  Watts(P(params, "cruise_w") * cruise_jitter));
    }
    double regen = P(params, "regen_w");
    if (regen > 0.0 && span > accel) {
      supply.Append(Seconds(accel), Watts(0.0));
      double regen_s = std::min(accel, span - accel);
      supply.Append(Seconds(regen_s), Watts(regen));
      if (span - accel - regen_s > 0.0) {
        supply.Append(Seconds(span - accel - regen_s), Watts(0.0));
      }
    }
    elapsed += span;
  }
  spec.load = std::move(load);
  spec.supply = std::move(supply);
  spec.sim.tick = Seconds(1.0);
  spec.sim.runtime_period = Seconds(30.0);
  FinishSpec(spec);
  return spec;
}

std::vector<ScenarioPack> BuildRegistry() {
  std::vector<ScenarioPack> packs;
  packs.push_back(ScenarioPack{
      "smartwatch-day",
      "paper §5.2 watch day: idle + message checks + one run (Fig. 13)",
      {
          {"capacity_mah", 200.0, 80.0, 500.0, "per-battery capacity (mAh)"},
          {"idle_mw", 50.0, 10.0, 150.0, "always-on baseline draw (mW)"},
          {"checks_per_hour", 6.0, 0.0, 30.0, "message-check bursts per hour"},
          {"run_hours", 1.0, 0.0, 4.0, "GPS+HR tracked run length (h)"},
          {"days", 1.0, 0.25, 7.0, "trace length (days)"},
      },
      &ExpandSmartwatchDay});
  packs.push_back(ScenarioPack{
      "fastcharge-tablet",
      "paper §5.1 tablet: bursty load + wall supply on fast/high-energy pair",
      {
          {"capacity_mah", 4000.0, 1000.0, 8000.0, "per-battery capacity (mAh)"},
          {"load_w", 8.0, 1.0, 25.0, "mean load while active (W)"},
          {"supply_w", 30.0, 10.0, 65.0, "wall supply (W)"},
          {"hours", 4.0, 1.0, 24.0, "trace length (h)"},
          {"initial_soc", 0.25, 0.05, 1.0, "starting state of charge"},
          {"supply_start_h", 0.0, 0.0, 24.0,
           "wall supply plugs in at this hour (h); 0 = from the start"},
      },
      &ExpandFastchargeTablet});
  packs.push_back(ScenarioPack{
      "phone-day",
      "paper §4.3 phone: screen sessions, standby, a midday video call",
      {
          {"capacity_mah", 3000.0, 1000.0, 6000.0, "main-battery capacity (mAh)"},
          {"days", 1.0, 0.25, 7.0, "trace length (days)"},
          {"scale", 1.0, 0.3, 3.0, "power multiplier on the whole trace"},
      },
      &ExpandPhoneDay});
  packs.push_back(ScenarioPack{
      "twoin1-docking-week",
      "2-in-1 work week: docked (mains) 9-to-5, mobile evenings (§5.3 grown)",
      {
          {"capacity_mah", 4000.0, 1500.0, 8000.0, "per-battery capacity (mAh)"},
          {"days", 5.0, 1.0, 14.0, "week length (days)"},
          {"work_hours", 8.0, 1.0, 16.0, "docked hours per day"},
          {"evening_hours", 3.0, 0.0, 8.0, "mobile evening hours per day"},
          {"active_w", 10.0, 4.0, 22.0, "mean draw while in use (W)"},
          {"dock_w", 40.0, 15.0, 60.0, "dock supply while docked (W)"},
      },
      &ExpandTwoInOneDockingWeek});
  packs.push_back(ScenarioPack{
      "ambient-sensor-nimh",
      "Ni-MH ambient-sensor node: duty-cycled sense/transmit bursts (0802.3053)",
      {
          {"capacity_mah", 500.0, 100.0, 3000.0, "small-cell capacity (mAh)"},
          {"days", 2.0, 0.25, 30.0, "deployment length (days)"},
          {"period_s", 300.0, 60.0, Hours(1.0).value(), "duty-cycle period (s)"},
          {"burst_s", 5.0, 0.5, 30.0, "burst length per period (s)"},
          {"burst_mw", 120.0, 5.0, 500.0, "sense/transmit burst draw (mW)"},
          {"idle_mw", 2.0, 0.2, 20.0, "sleep-mode floor (mW)"},
      },
      &ExpandAmbientSensorNiMh});
  packs.push_back(ScenarioPack{
      "harvest-dual",
      "dual-battery energy-harvesting duty cycle: tx bursts + harvest windows "
      "(1801.03813)",
      {
          {"capacity_mah", 800.0, 100.0, 3000.0, "per-battery capacity (mAh)"},
          {"hours", 12.0, 1.0, 168.0, "trace length (h)"},
          {"cycle_min", 30.0, 5.0, 240.0, "duty-cycle period (min)"},
          {"tx_w", 0.8, 0.05, 5.0, "transmit-window draw (W)"},
          {"tx_duty", 0.25, 0.05, 0.95, "transmit fraction of each cycle"},
          {"harvest_w", 0.6, 0.05, 10.0, "harvester feed while lit (W)"},
          {"harvest_duty", 0.4, 0.05, 0.95, "harvest fraction of each cycle"},
      },
      &ExpandHarvestDual});
  packs.push_back(ScenarioPack{
      "ev-burst",
      "EV-like high-C bursts on LiFePO4 power cells, optional regen feed-in",
      {
          {"capacity_mah", 5000.0, 1000.0, 20000.0, "per-cell capacity (mAh)"},
          {"hours", 1.0, 0.2, 8.0, "drive length (h)"},
          {"cruise_w", 15.0, 2.0, 60.0, "cruise draw (W)"},
          {"burst_w", 90.0, 10.0, 250.0, "acceleration burst draw (W)"},
          {"burst_s", 8.0, 1.0, 60.0, "burst length (s)"},
          {"burst_every_s", 120.0, 20.0, 900.0, "burst period (s)"},
          {"regen_w", 0.0, 0.0, 40.0, "regen feed-in after each burst (W)"},
          {"spike_w", 0.0, 0.0, 400.0,
           "one trip-bait spike replacing the first burst at/after mid-drive "
           "(W); 0 disables"},
      },
      &ExpandEvBurst});
  return packs;
}

}  // namespace

const std::vector<ScenarioPack>& ScenarioPacks() {
  static const std::vector<ScenarioPack>* kPacks =
      new std::vector<ScenarioPack>(BuildRegistry());
  return *kPacks;
}

const ScenarioPack* FindScenarioPack(std::string_view name) {
  for (const ScenarioPack& pack : ScenarioPacks()) {
    if (pack.name == name) {
      return &pack;
    }
  }
  return nullptr;
}

StatusOr<PackParams> ResolvePackParams(const ScenarioPack& pack,
                                       const PackParams& overrides) {
  PackParams resolved;
  for (const PackParamSpec& spec : pack.params) {
    resolved[spec.name] = spec.default_value;
  }
  for (const auto& [name, value] : overrides) {
    auto it = resolved.find(name);
    if (it == resolved.end()) {
      std::ostringstream os;
      os << "pack '" << pack.name << "' has no parameter '" << name << "' (has:";
      for (const PackParamSpec& spec : pack.params) {
        os << " " << spec.name;
      }
      os << ")";
      return InvalidArgumentError(os.str());
    }
    const PackParamSpec* spec = nullptr;
    for (const PackParamSpec& candidate : pack.params) {
      if (candidate.name == name) {
        spec = &candidate;
      }
    }
    SDB_CHECK(spec != nullptr);
    if (!std::isfinite(value) || value < spec->min_value || value > spec->max_value) {
      std::ostringstream os;
      os << "pack '" << pack.name << "' parameter '" << name << "' = " << value
         << " out of range [" << spec->min_value << ", " << spec->max_value << "]";
      return InvalidArgumentError(os.str());
    }
    it->second = value;
  }
  return resolved;
}

StatusOr<ScenarioSpec> ExpandScenario(const std::string& pack_name,
                                      const PackParams& overrides, uint64_t seed,
                                      const PowerTrace* load_override) {
  const ScenarioPack* pack = FindScenarioPack(pack_name);
  if (pack == nullptr) {
    std::ostringstream os;
    os << "unknown scenario pack '" << pack_name << "' (have:";
    for (const ScenarioPack& candidate : ScenarioPacks()) {
      os << " " << candidate.name;
    }
    os << ")";
    return NotFoundError(os.str());
  }
  StatusOr<PackParams> resolved = ResolvePackParams(*pack, overrides);
  if (!resolved.ok()) {
    return resolved.status();
  }
  ScenarioSpec spec = pack->expand(*resolved, seed);
  SDB_CHECK(spec.batteries.size() == spec.initial_soc.size());
  SDB_CHECK(!spec.load.empty());
  if (load_override != nullptr) {
    if (load_override->empty()) {
      return InvalidArgumentError("substituted trace for pack '" + pack_name +
                                  "' is empty");
    }
    // External-trace substitution: the recorded load replaces the synthetic
    // one; supply is clipped to the new horizon and the sim follows it.
    spec.load = *load_override;
    spec.sim.max_duration = spec.load.TotalDuration() + spec.sim.tick;
  }
  // Traces live as long as the run: drop the builders' spare capacity.
  spec.load.ShrinkToFit();
  spec.supply.ShrinkToFit();
  return spec;
}

std::vector<Cell> BuildScenarioCells(const ScenarioSpec& spec) {
  std::vector<Cell> cells;
  cells.reserve(spec.batteries.size());
  for (size_t i = 0; i < spec.batteries.size(); ++i) {
    cells.emplace_back(spec.batteries[i], spec.initial_soc[i]);
  }
  return cells;
}

SimResult RunScenario(const ScenarioSpec& spec, uint64_t seed_salt) {
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(
      BuildScenarioCells(spec), MixSeed(spec.seed, 0x516A11ULL ^ seed_salt));
  RuntimeConfig config;
  config.directives = spec.directives;
  SdbRuntime runtime(&micro, config);
  Simulator sim(&runtime, spec.sim);
  return sim.Run(spec.load, spec.supply);
}

}  // namespace sdb
