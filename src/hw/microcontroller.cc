#include "src/hw/microcontroller.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

namespace {

std::vector<const BatteryParams*> CollectParams(const BatteryPack& pack) {
  std::vector<const BatteryParams*> params;
  params.reserve(pack.size());
  for (size_t i = 0; i < pack.size(); ++i) {
    params.push_back(&pack.cell(i).params());
  }
  return params;
}

}  // namespace

SdbMicrocontroller::SdbMicrocontroller(BatteryPack pack, DischargeCircuitConfig discharge_config,
                                       ChargeCircuitConfig charge_config,
                                       FuelGaugeConfig gauge_config, uint64_t seed)
    : pack_(std::move(pack)),
      discharge_circuit_(discharge_config, seed ^ 0x9E3779B97F4A7C15ULL),
      charge_circuit_(charge_config, CollectParams(pack_), seed ^ 0xD1B54A32D192ED03ULL) {
  SDB_CHECK(!pack_.empty());
  const size_t n = pack_.size();
  gauges_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    gauges_.emplace_back(gauge_config, seed + 17 * (i + 1), pack_.cell(i).soc());
  }
  // Default: split evenly, the closest analogue of a dumb parallel pack.
  charge_ratios_.assign(n, 1.0 / static_cast<double>(n));
  discharge_ratios_.assign(n, 1.0 / static_cast<double>(n));
}

Status SdbMicrocontroller::ValidateRatios(const std::vector<double>& ratios) const {
  if (ratios.size() != pack_.size()) {
    return InvalidArgumentError("ratio vector arity must match battery count");
  }
  double sum = 0.0;
  for (double r : ratios) {
    if (!(r >= 0.0) || !std::isfinite(r)) {
      return InvalidArgumentError("ratios must be finite and non-negative");
    }
    sum += r;
  }
  if (std::fabs(sum - 1.0) > 1e-6) {
    return InvalidArgumentError("ratios must sum to 1");
  }
  return Status::Ok();
}

Status SdbMicrocontroller::CheckCommandGate() const {
  if (in_reset_) {
    return UnavailableError("microcontroller held in reset (brownout)");
  }
  if (awaiting_resync_) {
    return FailedPreconditionError("microcontroller rebooted: resync required");
  }
  return Status::Ok();
}

void SdbMicrocontroller::Reboot() {
  transfer_.reset();
  const size_t n = pack_.size();
  charge_ratios_.assign(n, 1.0 / static_cast<double>(n));
  discharge_ratios_.assign(n, 1.0 / static_cast<double>(n));
  awaiting_resync_ = true;
  ++boot_count_;
  static obs::Counter* reboots =
      obs::MetricsRegistry::Global().GetCounter("sdb.hw.micro_reboots");
  reboots->Increment();
  SDB_JOURNAL_EVENT(obs::EventKind::kMicroReboot, -1.0, -1, "watchdog-reboot",
                    std::string(), static_cast<double>(boot_count_));
}

void SdbMicrocontroller::RequireResync() {
  awaiting_resync_ = true;
  ++boot_count_;
  SDB_JOURNAL_EVENT(obs::EventKind::kMicroReboot, -1.0, -1, "warm-restart",
                    std::string(), static_cast<double>(boot_count_));
}

uint32_t SdbMicrocontroller::Resync() {
  awaiting_resync_ = false;
  SDB_JOURNAL_EVENT(obs::EventKind::kResync, -1.0, -1, "micro-resync", std::string(),
                    static_cast<double>(boot_count_));
  return boot_count_;
}

Status SdbMicrocontroller::SetChargeRatios(const std::vector<double>& ratios) {
  SDB_RETURN_IF_ERROR(CheckCommandGate());
  SDB_RETURN_IF_ERROR(ValidateRatios(ratios));
  charge_ratios_ = ratios;
  return Status::Ok();
}

Status SdbMicrocontroller::SetDischargeRatios(const std::vector<double>& ratios) {
  SDB_RETURN_IF_ERROR(CheckCommandGate());
  SDB_RETURN_IF_ERROR(ValidateRatios(ratios));
  discharge_ratios_ = ratios;
  return Status::Ok();
}

Status SdbMicrocontroller::ChargeOneFromAnother(size_t from, size_t to, Power power,
                                                Duration duration) {
  SDB_RETURN_IF_ERROR(CheckCommandGate());
  if (from >= pack_.size() || to >= pack_.size()) {
    return OutOfRangeError("battery index out of range");
  }
  if (from == to) {
    return InvalidArgumentError("cannot charge a battery from itself");
  }
  if (power.value() <= 0.0 || duration.value() <= 0.0) {
    return InvalidArgumentError("transfer power and duration must be positive");
  }
  transfer_ = ActiveTransfer{from, to, power, duration};
  return Status::Ok();
}

std::vector<BatteryStatus> SdbMicrocontroller::QueryBatteryStatus() const {
  std::vector<BatteryStatus> statuses;
  QueryBatteryStatus(&statuses);
  return statuses;
}

void SdbMicrocontroller::QueryBatteryStatus(std::vector<BatteryStatus>* out) const {
  std::vector<BatteryStatus>& statuses = *out;
  statuses.clear();
  statuses.reserve(pack_.size());
  for (size_t i = 0; i < pack_.size(); ++i) {
    const Cell& cell = pack_.cell(i);
    BatteryStatus s;
    s.soc = gauges_[i].EstimatedSoc();
    s.terminal_voltage = gauges_[i].MeasuredVoltage();
    s.last_current = gauges_[i].MeasuredCurrent();
    s.cycle_count = cell.aging().cycle_count();
    s.full_capacity = cell.EffectiveCapacity();
    s.temperature = cell.thermal().temperature();
    if (fault_.has_value()) {
      if (std::optional<Temperature> floor = fault_->ReportedTemperatureFloor(i)) {
        s.temperature = Max(s.temperature, *floor);
      }
    }
    statuses.push_back(s);
  }
}

Status SdbMicrocontroller::SelectChargeProfile(size_t battery, size_t profile_index) {
  SDB_RETURN_IF_ERROR(CheckCommandGate());
  return charge_circuit_.SelectProfile(battery, profile_index);
}

void SdbMicrocontroller::InstallFaults(FaultPlan plan) {
  fault_.emplace(std::move(plan));
  for (size_t i = 0; i < gauges_.size(); ++i) {
    gauges_[i].AttachFaultInjector(&*fault_, i);
  }
}

void SdbMicrocontroller::CancelTransfer() { transfer_.reset(); }

const std::vector<double>& SdbMicrocontroller::MaskFaulted(const std::vector<double>& ratios) {
  bool safety_active = safety_ != nullptr && safety_->AnyUnhealthy();
  if (!safety_active && !pack_.AnyOpenCircuit()) {
    return ratios;
  }
  std::vector<double>& masked = masked_ratios_;
  masked.resize(ratios.size());
  double sum = 0.0;
  for (size_t i = 0; i < masked.size(); ++i) {
    bool faulted = (safety_active && safety_->IsFaulted(i)) || pack_.IsOpenCircuit(i);
    masked[i] = faulted ? 0.0 : ratios[i];
    sum += masked[i];
  }
  if (sum > 0.0) {
    for (auto& r : masked) {
      r /= sum;
    }
  }
  if (!safety_active) {
    return masked;
  }
  // Probation cap: a probing battery carries at most the configured share;
  // the excess spills onto the unconstrained batteries pro rata.
  const double cap = safety_->probe_share_cap();
  double excess = 0.0;
  double unclamped = 0.0;
  for (size_t i = 0; i < masked.size(); ++i) {
    if (safety_->IsProbing(i) && masked[i] > cap) {
      excess += masked[i] - cap;
      masked[i] = cap;
    } else if (!safety_->IsProbing(i)) {
      unclamped += masked[i];
    }
  }
  if (excess > 0.0 && unclamped > 0.0) {
    for (size_t i = 0; i < masked.size(); ++i) {
      if (!safety_->IsProbing(i)) {
        masked[i] += excess * (masked[i] / unclamped);
      }
    }
  }
  return masked;
}

const MicroTick& SdbMicrocontroller::Step(Power load, Power external_supply, Duration dt) {
  SDB_CHECK(dt.value() > 0.0);
  MicroTick& tick = tick_;
  tick.dt = dt;
  const size_t n = pack_.size();

  // Watchdog: a crash or brownout window starting this tick reboots the
  // controller before anything else happens. Sync the pack's open-circuit
  // flags with the fault plan before any electrical step sees them.
  if (fault_.has_value()) {
    if (fault_->MicroRebootEdge()) {
      Reboot();
    }
    bool was_in_reset = in_reset_;
    in_reset_ = fault_->MicroHeldInReset();
    if (in_reset_ && !was_in_reset) {
      SDB_JOURNAL_EVENT(obs::EventKind::kMicroBrownout, -1.0, -1, "held-in-reset");
    }
    for (size_t i = 0; i < n; ++i) {
      pack_.SetOpenCircuit(i, fault_->OpenCircuit(i));
    }
  }

  // External supply covers the load first; the surplus charges the pack.
  double supply_w = std::max(0.0, external_supply.value());
  double load_w = std::max(0.0, load.value());
  double supply_to_load = std::min(supply_w, load_w);
  double load_from_pack = load_w - supply_to_load;
  double supply_to_charge = supply_w - supply_to_load;

  if (load_from_pack > 0.0) {
    const std::vector<double>& d_ratios = MaskFaulted(discharge_ratios_);
    // A collapsed regulator wastes a fraction of everything it converts:
    // the batteries must source load/eff, and the surplus is circuit loss.
    double eff = fault_.has_value() ? fault_->DischargeEfficiencyFactor() : 1.0;
    discharge_circuit_.Step(pack_, d_ratios, Watts(load_from_pack / eff), dt, &tick.discharge);
    if (eff < 1.0) {
      double gross_w = tick.discharge.delivered.value();
      double net_w = gross_w * eff;
      tick.discharge.circuit_loss += Joules((gross_w - net_w) * dt.value());
      tick.discharge.delivered = Watts(net_w);
      tick.discharge.shortfall = net_w < load_from_pack * 0.995;
    }
    // Power the external source fed straight to the load still counts as
    // delivered to the load.
    tick.discharge.delivered += Watts(supply_to_load);
  } else {
    discharge_circuit_.StepIdle(n, &tick.discharge);
    tick.discharge.delivered = Watts(supply_to_load);
  }
  tick.discharge.requested = load;

  if (supply_to_charge > 0.0) {
    const std::vector<double>& c_ratios = MaskFaulted(charge_ratios_);
    charge_circuit_.Step(pack_, c_ratios, Watts(supply_to_charge), dt, &tick.charge);
  } else {
    tick.charge.SetIdle(n);
    tick.charge.supply_offered = Watts(0.0);
  }

  // An open-circuit end idles an active transfer (without cancelling it):
  // the schedule resumes if the dropout clears before the window ends.
  bool transfer_blocked =
      transfer_.has_value() &&
      (pack_.IsOpenCircuit(transfer_->from) || pack_.IsOpenCircuit(transfer_->to));
  if (transfer_.has_value() && !transfer_blocked) {
    tick.transfer =
        charge_circuit_.StepTransfer(pack_, transfer_->from, transfer_->to, transfer_->power, dt);
    tick.transfer_active = true;
    transfer_->remaining -= dt;
    if (transfer_->remaining.value() <= 0.0 || tick.transfer.source_exhausted ||
        tick.transfer.destination_full) {
      transfer_.reset();
    }
  } else {
    tick.transfer = TransferTick{Joules(0.0), Joules(0.0), Joules(0.0), Joules(0.0), false, false};
    tick.transfer_active = false;
  }

  // Protection: inspect every battery's realised electrical state.
  if (safety_ != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      const Cell& cell = pack_.cell(i);
      double i_net = 0.0;
      i_net += tick.discharge.currents[i].value();
      i_net += tick.charge.currents[i].value();
      StepResult observed;
      observed.current = Amps(i_net);
      observed.terminal_voltage =
          Volts(cell.NoLoadVoltage().value() - i_net * cell.InternalResistance().value());
      safety_->Inspect(i, cell, observed);
    }
    // Run the recovery lifecycle timers (no-op for latch-only supervisors).
    safety_->Advance(dt);
  }

  // Feed the fuel gauges with the net per-battery currents.
  for (size_t i = 0; i < n; ++i) {
    Cell& cell = pack_.cell(i);
    double i_net = 0.0;
    i_net += tick.discharge.currents[i].value();
    i_net += tick.charge.currents[i].value();
    // Transfer-leg currents are already reflected in cell state; the gauges
    // re-anchor at full/empty below, like production coulomb counters.
    Voltage v = cell.NoLoadVoltage();
    gauges_[i].Observe(Amps(i_net), v, cell.EffectiveCapacity(), dt);
    if (cell.IsFull()) {
      gauges_[i].AnchorSoc(1.0);
    } else if (cell.IsEmpty()) {
      gauges_[i].AnchorSoc(0.0);
    }
  }

  // Advance the fault clock last so a runtime Update() between Steps sees
  // the injector at exactly the simulated time it has reached.
  if (fault_.has_value()) {
    fault_->Advance(dt);
  }
  return tick;
}

MicroState SdbMicrocontroller::SaveState() const {
  MicroState state;
  const size_t n = pack_.size();
  state.lanes.reserve(n);
  state.open_circuit.reserve(n);
  state.gauges.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    state.lanes.push_back(pack_.cell(i).ExportLaneState());
    state.open_circuit.push_back(pack_.IsOpenCircuit(i));
    state.gauges.push_back(gauges_[i].SaveState());
  }
  state.discharge_circuit = discharge_circuit_.SaveState();
  state.charge_circuit = charge_circuit_.SaveState();
  state.charge_ratios = charge_ratios_;
  state.discharge_ratios = discharge_ratios_;
  if (transfer_.has_value()) {
    state.transfer_active = true;
    state.transfer_from = transfer_->from;
    state.transfer_to = transfer_->to;
    state.transfer_power = transfer_->power;
    state.transfer_remaining = transfer_->remaining;
  }
  state.awaiting_resync = awaiting_resync_;
  state.in_reset = in_reset_;
  state.boot_count = boot_count_;
  if (fault_.has_value()) {
    state.has_fault_state = true;
    state.fault = fault_->SaveState();
  }
  return state;
}

Status SdbMicrocontroller::RestoreState(const MicroState& state) {
  const size_t n = pack_.size();
  if (state.lanes.size() != n || state.open_circuit.size() != n ||
      state.gauges.size() != n || state.charge_ratios.size() != n ||
      state.discharge_ratios.size() != n) {
    return InvalidArgumentError("microcontroller: snapshot arity does not match pack size " +
                                std::to_string(n));
  }
  if (state.has_fault_state != fault_.has_value()) {
    return InvalidArgumentError(
        "microcontroller: snapshot fault-injector presence does not match installed plan");
  }
  if (state.transfer_active &&
      (state.transfer_from >= n || state.transfer_to >= n ||
       state.transfer_from == state.transfer_to)) {
    return InvalidArgumentError("microcontroller: snapshot transfer endpoints invalid");
  }
  // Validate the fallible restores before mutating anything else, so a
  // rejected snapshot leaves the controller unchanged.
  SDB_RETURN_IF_ERROR(charge_circuit_.RestoreState(state.charge_circuit));
  if (fault_.has_value()) {
    SDB_RETURN_IF_ERROR(fault_->RestoreState(state.fault));
  }
  for (size_t i = 0; i < n; ++i) {
    pack_.cell(i).ImportLaneState(state.lanes[i]);
    pack_.SetOpenCircuit(i, state.open_circuit[i]);
    gauges_[i].RestoreState(state.gauges[i]);
  }
  discharge_circuit_.RestoreState(state.discharge_circuit);
  charge_ratios_ = state.charge_ratios;
  discharge_ratios_ = state.discharge_ratios;
  if (state.transfer_active) {
    transfer_ = ActiveTransfer{static_cast<size_t>(state.transfer_from),
                               static_cast<size_t>(state.transfer_to), state.transfer_power,
                               state.transfer_remaining};
  } else {
    transfer_.reset();
  }
  awaiting_resync_ = state.awaiting_resync;
  in_reset_ = state.in_reset;
  boot_count_ = state.boot_count;
  return Status::Ok();
}

SdbMicrocontroller MakeDefaultMicrocontroller(std::vector<Cell> cells, uint64_t seed) {
  BatteryPack pack;
  for (auto& cell : cells) {
    pack.AddCell(std::move(cell));
  }
  return SdbMicrocontroller(std::move(pack), DischargeCircuitConfig{}, ChargeCircuitConfig{},
                            FuelGaugeConfig{}, seed);
}

}  // namespace sdb
