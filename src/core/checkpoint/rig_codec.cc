#include "src/core/checkpoint/rig_codec.h"

#include "src/core/checkpoint/wire.h"

namespace sdb {
namespace checkpoint {

namespace {

// Each *Fields function is one layout, in wire order, run by both the
// encoder (Io = ByteWriter, const state) and the decoder (Io = ByteReader).

template <typename Io, typename Rng>
Status RngFields(Io& io, Rng& rng) {
  for (auto& word : rng.state) {
    SDB_RETURN_IF_ERROR(io.Field(word));
  }
  return io.Fields(rng.has_cached_gaussian, rng.cached_gaussian);
}

template <typename Io, typename Lane>
Status LaneFields(Io& io, Lane& lane) {
  auto& e = lane.electrical;
  auto& a = lane.aging;
  auto& t = lane.thermal;
  return io.Fields(e.soc, e.v_rc_v, e.resistance_scale, e.ocv_hint, e.dcir_hint, e.rc_decay_dt_s,
                   e.rc_decay, e.ocv_x, e.ocv_cache, a.capacity_factor, a.cycle_count,
                   a.cumulative_charge_c, a.weighted_current_sum, a.weighted_charge_sum,
                   a.total_charge_in_c, a.total_charge_out_c, t.temp_k, t.total_heat_j,
                   t.decay_dt_s, t.decay, lane.total_loss_j);
}

// SafetyReading variant: alternative index + raw magnitude. The index comes
// back through the same table, so an out-of-range byte is corruption.
template <typename Io, typename Reading>
Status ReadingFields(Io& io, Reading& reading) {
  uint8_t index = static_cast<uint8_t>(reading.index());
  double value = ReadingValue(reading);
  SDB_RETURN_IF_ERROR(io.Fields(index, value));
  if constexpr (Io::kReads) {
    switch (index) {
      case 0:
        reading = std::monostate{};
        break;
      case 1:
        reading = Amps(value);
        break;
      case 2:
        reading = Volts(value);
        break;
      case 3:
        reading = Kelvin(value);
        break;
      default:
        return InvalidArgumentError("checkpoint: safety reading alternative out of range");
    }
  }
  return Status::Ok();
}

template <typename Io, typename BatteryStatusT>
Status StatusFields(Io& io, BatteryStatusT& s) {
  return io.Fields(s.soc, s.terminal_voltage, s.cycle_count, s.full_capacity, s.last_current,
                   s.temperature);
}

template <typename Io, typename Gauge>
Status GaugeFields(Io& io, Gauge& gauge) {
  SDB_RETURN_IF_ERROR(RngFields(io, gauge.rng));
  return io.Fields(gauge.soc_estimate, gauge.last_current, gauge.last_voltage);
}

template <typename Io, typename State>
Status MicroFields(Io& io, State& s) {
  // A lane is 160 bytes on the wire, so 64 is a safe lower bound that still
  // rejects a corrupt count before allocating.
  SDB_RETURN_IF_ERROR(
      io.Seq(s.lanes, 64, "lane count", [&io](auto& lane) { return LaneFields(io, lane); }));
  SDB_RETURN_IF_ERROR(io.Field(s.open_circuit));
  SDB_RETURN_IF_ERROR(
      io.Seq(s.gauges, 64, "gauge count", [&io](auto& gauge) { return GaugeFields(io, gauge); }));
  SDB_RETURN_IF_ERROR(RngFields(io, s.discharge_circuit.rng));
  SDB_RETURN_IF_ERROR(io.Field(s.discharge_circuit.shortfall_latched));
  SDB_RETURN_IF_ERROR(RngFields(io, s.charge_circuit.rng));
  SDB_RETURN_IF_ERROR(io.Seq(s.charge_circuit.selected_profiles, 8, "vector length"));
  SDB_RETURN_IF_ERROR(io.Fields(s.charge_ratios, s.discharge_ratios, s.transfer_active,
                                s.transfer_from, s.transfer_to, s.transfer_power,
                                s.transfer_remaining, s.awaiting_resync, s.in_reset,
                                s.boot_count, s.has_fault_state));
  // The injector block is present only when a fault plan was installed.
  if (!s.has_fault_state) {
    return Status::Ok();
  }
  SDB_RETURN_IF_ERROR(RngFields(io, s.fault.rng));
  return io.Fields(s.fault.now, s.fault.dropped_queries, s.fault.corrupted_replies,
                   s.fault.micro_reboots, s.fault.reboot_fired);
}

template <typename Io, typename Fault>
Status FaultRecordFields(Io& io, Fault& fault) {
  SDB_RETURN_IF_ERROR(io.Enum(fault.kind, FaultKind::kOverTemperature, "fault kind"));
  SDB_RETURN_IF_ERROR(ReadingFields(io, fault.observed));
  return ReadingFields(io, fault.limit);
}

template <typename Io, typename Lifecycle>
Status LifecycleFields(Io& io, Lifecycle& l) {
  SDB_RETURN_IF_ERROR(io.Enum(l.health, BatteryHealth::kProbing, "health"));
  return io.Fields(l.dwell_remaining, l.probe_remaining, l.next_dwell, l.condition_clear, l.trips,
                   l.recoveries);
}

template <typename Io, typename Transition>
Status TransitionFields(Io& io, Transition& t) {
  SDB_RETURN_IF_ERROR(io.Field(t.battery));
  SDB_RETURN_IF_ERROR(io.Enum(t.from, BatteryHealth::kProbing, "health"));
  SDB_RETURN_IF_ERROR(io.Enum(t.to, BatteryHealth::kProbing, "health"));
  SDB_RETURN_IF_ERROR(io.Field(t.at));
  return io.Enum(t.kind, FaultKind::kOverTemperature, "fault kind");
}

template <typename Io, typename State>
Status SupervisorFields(Io& io, State& s) {
  SDB_RETURN_IF_ERROR(io.Seq(s.faults, 19, "fault-record count",
                             [&io](auto& fault) { return FaultRecordFields(io, fault); }));
  SDB_RETURN_IF_ERROR(io.Seq(s.lifecycle, 42, "lifecycle count",
                             [&io](auto& l) { return LifecycleFields(io, l); }));
  SDB_RETURN_IF_ERROR(io.Seq(s.transitions, 19, "transition count",
                             [&io](auto& t) { return TransitionFields(io, t); }));
  return io.Fields(s.transitions_dropped, s.clock);
}

template <typename Io, typename State>
Status LinkFields(Io& io, State& s) {
  SDB_RETURN_IF_ERROR(io.Fields(s.client.next_seq, s.client.last_boot_count, s.client.resyncs,
                                s.server.known_boot, s.server.have_last, s.server.last_seq,
                                s.server.last_type));
  SDB_RETURN_IF_ERROR(io.Seq(s.server.last_payload, 1, "byte-vector length"));
  SDB_RETURN_IF_ERROR(io.Seq(s.server.last_response, 1, "byte-vector length"));
  return io.Field(s.server.replayed_commands);
}

template <typename Io, typename State>
Status RuntimeFields(Io& io, State& s) {
  SDB_RETURN_IF_ERROR(io.Fields(s.directives.charging, s.directives.discharging, s.has_hint,
                                s.hint.time_until, s.hint.expected_power, s.hint.duration,
                                s.last_ccb, s.last_rbl, s.elapsed, s.last_discharge_ratios,
                                s.last_charge_ratios));
  SDB_RETURN_IF_ERROR(io.Seq(s.last_statuses, 48, "status count",
                             [&io](auto& status) { return StatusFields(io, status); }));
  auto& r = s.resilience;
  return io.Fields(s.consecutive_stale, s.degraded, s.excluded, s.prev_excluded, s.ramp,
                   s.last_link_resyncs, r.link_retries, r.link_failures, r.stale_updates,
                   r.degraded_entries, r.degraded_exits, r.masked_faults, r.quarantines,
                   r.reintegrations, r.resyncs, r.backoff_total);
}

}  // namespace

std::vector<uint8_t> EncodeMicroState(const MicroState& state) {
  ByteWriter w;
  return w.Finish(MicroFields(w, state));
}

StatusOr<MicroState> DecodeMicroState(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  MicroState state;
  return r.Finish(MicroFields(r, state), state);
}

std::vector<uint8_t> EncodeSupervisorState(const SafetySupervisor::SupervisorState& state) {
  ByteWriter w;
  return w.Finish(SupervisorFields(w, state));
}

StatusOr<SafetySupervisor::SupervisorState> DecodeSupervisorState(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  SafetySupervisor::SupervisorState state;
  return r.Finish(SupervisorFields(r, state), state);
}

std::vector<uint8_t> EncodeLinkState(const LinkState& state) {
  ByteWriter w;
  return w.Finish(LinkFields(w, state));
}

StatusOr<LinkState> DecodeLinkState(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  LinkState state;
  return r.Finish(LinkFields(r, state), state);
}

std::vector<uint8_t> EncodeRuntimeState(const RuntimeState& state) {
  ByteWriter w;
  return w.Finish(RuntimeFields(w, state));
}

StatusOr<RuntimeState> DecodeRuntimeState(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  RuntimeState state;
  return r.Finish(RuntimeFields(r, state), state);
}

}  // namespace checkpoint
}  // namespace sdb
