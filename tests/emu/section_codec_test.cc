// Checkpoint section codecs (DESIGN.md §16), all seven sections:
//
//   * a wire-format pin per section: a hand-built state with a distinct
//     literal in every field, encoded and pinned by size and Crc32. No
//     simulation runs, so a pin depends only on the layout and on IEEE-754
//     bit patterns, never on libm. A changed pin is a wire-format change.
//   * the decoder checks every section shares: the round trip is
//     byte-stable, every strict prefix is rejected with kInvalidArgument,
//     and so is one appended byte.
//
// The predictor and classifier codecs are private to the crash rig, so
// their sections go through MakeCrashRig(...)->SaveSnapshot/RestoreSnapshot
// with a hand-built payload spliced into the snapshot.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/checkpoint/rig_codec.h"
#include "src/core/checkpoint/snapshot.h"
#include "src/emu/crash.h"
#include "src/emu/harness.h"
#include "src/emu/simulator.h"
#include "src/util/crc32.h"
#include "src/util/units.h"

namespace sdb {
namespace {

uint32_t Crc(const std::vector<uint8_t>& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

RngState MakeRng(uint64_t base, bool has_cached, double cached) {
  RngState rng;
  for (int i = 0; i < 4; ++i) {
    rng.state[i] = base + 0x0101010101010101ULL * static_cast<uint64_t>(i);
  }
  rng.has_cached_gaussian = has_cached;
  rng.cached_gaussian = cached;
  return rng;
}

MicroState PinMicro() {
  MicroState s;
  soa::LaneState lane;
  lane.electrical.soc = 0.625;
  lane.electrical.v_rc_v = 0.0125;
  lane.electrical.resistance_scale = 1.25;
  lane.electrical.ocv_hint = 3;
  lane.electrical.dcir_hint = 4;
  lane.electrical.rc_decay_dt_s = 10.5;
  lane.electrical.rc_decay = 0.875;
  lane.electrical.ocv_x = 0.5;
  lane.electrical.ocv_cache = 3.75;
  lane.aging.capacity_factor = 0.96875;
  lane.aging.cycle_count = 12.5;
  lane.aging.cumulative_charge_c = 1800.25;
  lane.aging.weighted_current_sum = 2500.5;
  lane.aging.weighted_charge_sum = 640.125;
  lane.aging.total_charge_in_c = 9000.5;
  lane.aging.total_charge_out_c = 9100.75;
  lane.thermal.temp_k = 301.5;
  lane.thermal.total_heat_j = 42.25;
  lane.thermal.decay_dt_s = 9.5;
  lane.thermal.decay = 0.9375;
  lane.total_loss_j = 17.0625;
  s.lanes = {lane};
  s.open_circuit = {false, true};
  FuelGaugeState gauge;
  gauge.rng = MakeRng(0x0123456789ABCDEFULL, true, -0.75);
  gauge.soc_estimate = 0.6015625;
  gauge.last_current = Amps(1.5);
  gauge.last_voltage = Volts(3.8125);
  s.gauges = {gauge};
  s.discharge_circuit.rng = MakeRng(0x1111222233334444ULL, false, 0.3125);
  s.discharge_circuit.shortfall_latched = true;
  s.charge_circuit.rng = MakeRng(0x5555666677778888ULL, true, 1.0625);
  s.charge_circuit.selected_profiles = {2, 0xFEDCBA9876543210ULL};
  s.charge_ratios = {0.25, 0.75};
  s.discharge_ratios = {0.375, 0.625, -0.0};
  s.transfer_active = true;
  s.transfer_from = 5;
  s.transfer_to = 6;
  s.transfer_power = Watts(2.5);
  s.transfer_remaining = Seconds(120.25);
  s.awaiting_resync = true;
  s.in_reset = false;
  s.boot_count = 0x01020304;
  s.has_fault_state = true;
  s.fault.rng = MakeRng(0x99990000AAAABBBBULL, false, 0.4375);
  s.fault.now = Seconds(3600.5);
  s.fault.dropped_queries = 21;
  s.fault.corrupted_replies = 22;
  s.fault.micro_reboots = 23;
  s.fault.reboot_fired = {true, false, true};
  return s;
}

SafetySupervisor::SupervisorState PinSupervisor() {
  SafetySupervisor::SupervisorState s;
  // Every SafetyReading alternative, as observed value and as limit.
  s.faults = {
      FaultRecord{FaultKind::kNone, std::monostate{}, std::monostate{}},
      FaultRecord{FaultKind::kOverCurrentDischarge, Amps(4.5), Amps(4.25)},
      FaultRecord{FaultKind::kOverVoltage, Volts(4.375), Volts(4.3125)},
      FaultRecord{FaultKind::kOverTemperature, Kelvin(335.5), Kelvin(333.0)},
  };
  SafetySupervisor::LifecycleState tripped;
  tripped.health = BatteryHealth::kTripped;
  tripped.dwell_remaining = Seconds(30.5);
  tripped.probe_remaining = Seconds(0.75);
  tripped.next_dwell = Seconds(61.0);
  tripped.condition_clear = true;
  tripped.trips = 2;
  tripped.recoveries = 1;
  SafetySupervisor::LifecycleState probing;
  probing.health = BatteryHealth::kProbing;
  probing.dwell_remaining = Seconds(3.5);
  probing.probe_remaining = Seconds(14.25);
  probing.next_dwell = Seconds(122.0);
  probing.condition_clear = false;
  probing.trips = 5;
  probing.recoveries = 4;
  s.lifecycle = {tripped, probing};
  SafetySupervisor::Transition trip;
  trip.battery = 1;
  trip.from = BatteryHealth::kHealthy;
  trip.to = BatteryHealth::kTripped;
  trip.at = Seconds(12.5);
  trip.kind = FaultKind::kOverVoltage;
  SafetySupervisor::Transition probe;
  probe.battery = 3;
  probe.from = BatteryHealth::kCoolDown;
  probe.to = BatteryHealth::kProbing;
  probe.at = Seconds(99.75);
  probe.kind = FaultKind::kUnderVoltage;
  s.transitions = {trip, probe};
  s.transitions_dropped = 7;
  s.clock = Seconds(4000.25);
  return s;
}

checkpoint::LinkState PinLink() {
  checkpoint::LinkState s;
  s.client.next_seq = 513;
  s.client.last_boot_count = 70000;
  s.client.resyncs = 9;
  s.server.known_boot = 70001;
  s.server.have_last = true;
  s.server.last_seq = 0x1234;
  s.server.last_type = 0x42;
  s.server.last_payload = {1, 2, 3};
  s.server.last_response = {0xFE, 0x00};
  s.server.replayed_commands = 11;
  return s;
}

RuntimeState PinRuntime() {
  RuntimeState s;
  s.directives.charging = 0.3125;
  s.directives.discharging = 0.6875;
  s.has_hint = true;
  s.hint.time_until = Seconds(1800.5);
  s.hint.expected_power = Watts(12.5);
  s.hint.duration = Seconds(300.25);
  s.last_ccb = 0.84375;
  s.last_rbl = Joules(50000.5);
  s.elapsed = Seconds(7200.75);
  s.last_discharge_ratios = {0.40625, 0.59375};
  s.last_charge_ratios = {0.453125, 0.546875};
  BatteryStatus a;
  a.soc = 0.71875;
  a.terminal_voltage = Volts(3.90625);
  a.cycle_count = 33.5;
  a.full_capacity = Coulombs(10800.5);
  a.last_current = Amps(-0.5);
  a.temperature = Kelvin(299.25);
  BatteryStatus b;
  b.soc = 0.28125;
  b.terminal_voltage = Volts(3.59375);
  b.cycle_count = 101.25;
  b.full_capacity = Coulombs(7200.25);
  b.last_current = Amps(2.125);
  b.temperature = Kelvin(305.75);
  s.last_statuses = {a, b};
  s.consecutive_stale = 3;
  s.degraded = true;
  s.excluded = {true, false};
  s.prev_excluded = {false, true};
  s.ramp = {0.25, 1.0};
  s.last_link_resyncs = 4;
  s.resilience.link_retries = 31;
  s.resilience.link_failures = 32;
  s.resilience.stale_updates = 33;
  s.resilience.degraded_entries = 34;
  s.resilience.degraded_exits = 35;
  s.resilience.masked_faults = 36;
  s.resilience.quarantines = 37;
  s.resilience.reintegrations = 38;
  s.resilience.resyncs = 39;
  s.resilience.backoff_total = Seconds(1.5);
  return s;
}

SimLoopState PinSimLoop() {
  SimLoopState s;
  s.t = Seconds(1234.5);
  s.next_replan = Seconds(1800.25);
  s.next_checkpoint = Seconds(1500.75);
  s.transfer_was_active = true;
  s.partial.elapsed = Seconds(1234.25);
  s.partial.first_shortfall = Seconds(900.125);  // Present...
  s.partial.delivered = Joules(5000.125);
  s.partial.battery_loss = Joules(12.5);
  s.partial.circuit_loss = Joules(8.25);
  s.partial.charged = Joules(0.5);
  s.partial.final_soc = {0.5, 0.625, 0.75};
  s.partial.depletion_time = {std::nullopt, Seconds(42.5), std::nullopt};  // ...and absent.
  s.partial.events = {
      SimEvent{SimEventKind::kBatteryDepleted, Seconds(42.5), 1},
      SimEvent{SimEventKind::kTransferEnded, Seconds(90.25), -1},
  };
  s.partial.hourly = {
      HourlyStats{Joules(100.5), Joules(2.25), Joules(1.125), true, 3, 1, 2},
      HourlyStats{Joules(200.75), Joules(4.5), Joules(2.0625), false, 6, 5, 4},
  };
  s.partial.update_failures = -2;
  return s;
}

// Little-endian payload builder for the two sections whose codecs are
// private to the crash rig.
void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendF64(std::vector<uint8_t>& out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

// kSectionPredictor: i64 days, counted i64 high-day tallies, counted f64
// power sums (one of each per hour of the day).
std::vector<uint8_t> PinPredictorPayload() {
  std::vector<uint8_t> out;
  AppendU64(out, 5);
  AppendU64(out, 24);
  for (uint64_t h = 0; h < 24; ++h) {
    AppendU64(out, h % 6);
  }
  AppendU64(out, 24);
  for (int h = 0; h < 24; ++h) {
    AppendF64(out, 0.5 * h + 0.25);
  }
  return out;
}

// kSectionClassifier: the counted f64 sample window, oldest first.
std::vector<uint8_t> PinClassifierPayload() {
  std::vector<uint8_t> out;
  AppendU64(out, 3);
  AppendF64(out, 1.5);
  AppendF64(out, 7.25);
  AppendF64(out, 0.125);
  return out;
}

// Decoders must accept exactly `bytes`: every strict prefix and one
// appended byte are kInvalidArgument; the accepted state re-encodes to the
// same bytes.
template <typename State>
void ExpectStrictRoundTrip(std::vector<uint8_t> (*encode)(const State&),
                           StatusOr<State> (*decode)(const std::vector<uint8_t>&),
                           const std::vector<uint8_t>& bytes) {
  StatusOr<State> decoded = decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(encode(*decoded), bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> torn(bytes.begin(), bytes.begin() + cut);
    StatusOr<State> prefix = decode(torn);
    ASSERT_FALSE(prefix.ok()) << "prefix of length " << cut << " decoded";
    EXPECT_EQ(prefix.status().code(), StatusCode::kInvalidArgument) << "length " << cut;
  }
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  StatusOr<State> trailing = decode(padded);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatPinTest, Micro) {
  std::vector<uint8_t> bytes = checkpoint::EncodeMicroState(PinMicro());
  EXPECT_EQ(bytes.size(), 538u);
  EXPECT_EQ(Crc(bytes), 0x6CDFDCC0u);
}

TEST(WireFormatPinTest, Supervisor) {
  std::vector<uint8_t> bytes = checkpoint::EncodeSupervisorState(PinSupervisor());
  EXPECT_EQ(bytes.size(), 238u);
  EXPECT_EQ(Crc(bytes), 0x7FB4A91Du);
}

TEST(WireFormatPinTest, Link) {
  std::vector<uint8_t> bytes = checkpoint::EncodeLinkState(PinLink());
  EXPECT_EQ(bytes.size(), 51u);
  EXPECT_EQ(Crc(bytes), 0xF26E740Eu);
}

TEST(WireFormatPinTest, Runtime) {
  std::vector<uint8_t> bytes = checkpoint::EncodeRuntimeState(PinRuntime());
  EXPECT_EQ(bytes.size(), 358u);
  EXPECT_EQ(Crc(bytes), 0x1B1D3587u);
}

TEST(WireFormatPinTest, SimLoop) {
  std::vector<uint8_t> bytes = EncodeSimLoopState(PinSimLoop());
  EXPECT_EQ(bytes.size(), 297u);
  EXPECT_EQ(Crc(bytes), 0xF45D5A01u);
}

// The predictor and classifier payloads are built byte by byte above; the
// rig must restore them and save them back unchanged.
TEST(WireFormatPinTest, PredictorAndClassifier) {
  std::unique_ptr<RecoveryRig> rig = MakeCrashRig(3, FaultPlan{});
  checkpoint::Snapshot snap = rig->SaveSnapshot(SimLoopState{});
  for (checkpoint::Section& section : snap.sections) {
    if (section.id == checkpoint::kSectionPredictor) section.bytes = PinPredictorPayload();
    if (section.id == checkpoint::kSectionClassifier) section.bytes = PinClassifierPayload();
  }
  std::unique_ptr<RecoveryRig> twin = MakeCrashRig(3, FaultPlan{});
  RestoreReport resync;
  SimLoopState loop;
  Status restored = twin->RestoreSnapshot(snap, &resync, &loop);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  checkpoint::Snapshot saved = twin->SaveSnapshot(loop);
  const checkpoint::Section* predictor = saved.FindSection(checkpoint::kSectionPredictor);
  const checkpoint::Section* classifier = saved.FindSection(checkpoint::kSectionClassifier);
  ASSERT_NE(predictor, nullptr);
  ASSERT_NE(classifier, nullptr);
  EXPECT_EQ(predictor->bytes, PinPredictorPayload());
  EXPECT_EQ(classifier->bytes, PinClassifierPayload());
  EXPECT_EQ(predictor->bytes.size(), 408u);
  EXPECT_EQ(Crc(predictor->bytes), 0xA285572Bu);
  EXPECT_EQ(classifier->bytes.size(), 32u);
  EXPECT_EQ(Crc(classifier->bytes), 0x2E69EAA9u);
}

TEST(SectionCodecTest, MicroDecoderIsStrict) {
  ExpectStrictRoundTrip(&checkpoint::EncodeMicroState, &checkpoint::DecodeMicroState,
                        checkpoint::EncodeMicroState(PinMicro()));
}

TEST(SectionCodecTest, SupervisorDecoderIsStrict) {
  ExpectStrictRoundTrip(&checkpoint::EncodeSupervisorState, &checkpoint::DecodeSupervisorState,
                        checkpoint::EncodeSupervisorState(PinSupervisor()));
}

TEST(SectionCodecTest, LinkDecoderIsStrict) {
  ExpectStrictRoundTrip(&checkpoint::EncodeLinkState, &checkpoint::DecodeLinkState,
                        checkpoint::EncodeLinkState(PinLink()));
}

TEST(SectionCodecTest, RuntimeDecoderIsStrict) {
  ExpectStrictRoundTrip(&checkpoint::EncodeRuntimeState, &checkpoint::DecodeRuntimeState,
                        checkpoint::EncodeRuntimeState(PinRuntime()));
}

TEST(SectionCodecTest, SimLoopDecoderIsStrict) {
  ExpectStrictRoundTrip(&EncodeSimLoopState, &DecodeSimLoopState,
                        EncodeSimLoopState(PinSimLoop()));
}

// The micro section's fault-state gate: without an installed plan the
// injector block is absent, and the decoder must not expect it.
TEST(SectionCodecTest, MicroWithoutFaultStateIsStrict) {
  MicroState s = PinMicro();
  s.has_fault_state = false;
  s.fault = FaultInjectorState{};
  std::vector<uint8_t> bytes = checkpoint::EncodeMicroState(s);
  EXPECT_LT(bytes.size(), checkpoint::EncodeMicroState(PinMicro()).size());
  ExpectStrictRoundTrip(&checkpoint::EncodeMicroState, &checkpoint::DecodeMicroState, bytes);
}

// Predictor and classifier: a snapshot carrying `payload` in section `id`
// restores (the rig re-saves the same bytes) exactly when the payload is
// whole; every strict prefix and one appended byte fail the restore with
// kInvalidArgument.
void ExpectRigSectionIsStrict(uint32_t id, const std::vector<uint8_t>& payload) {
  std::unique_ptr<RecoveryRig> rig = MakeCrashRig(4, FaultPlan{});
  const checkpoint::Snapshot base = rig->SaveSnapshot(SimLoopState{});
  auto with_payload = [&](const std::vector<uint8_t>& bytes) {
    checkpoint::Snapshot snap = base;
    for (checkpoint::Section& section : snap.sections) {
      if (section.id == id) section.bytes = bytes;
    }
    return snap;
  };
  RestoreReport resync;
  SimLoopState loop;
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<uint8_t> torn(payload.begin(), payload.begin() + cut);
    Status restored = rig->RestoreSnapshot(with_payload(torn), &resync, &loop);
    ASSERT_FALSE(restored.ok()) << "prefix of length " << cut << " restored";
    EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument) << "length " << cut;
  }
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  Status trailing = rig->RestoreSnapshot(with_payload(padded), &resync, &loop);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.code(), StatusCode::kInvalidArgument);

  std::unique_ptr<RecoveryRig> twin = MakeCrashRig(4, FaultPlan{});
  Status restored = twin->RestoreSnapshot(with_payload(payload), &resync, &loop);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  const checkpoint::Snapshot saved = twin->SaveSnapshot(loop);
  const checkpoint::Section* section = saved.FindSection(id);
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->bytes, payload);
}

TEST(SectionCodecTest, PredictorDecoderIsStrict) {
  ExpectRigSectionIsStrict(checkpoint::kSectionPredictor, PinPredictorPayload());
}

TEST(SectionCodecTest, ClassifierDecoderIsStrict) {
  ExpectRigSectionIsStrict(checkpoint::kSectionClassifier, PinClassifierPayload());
}

}  // namespace
}  // namespace sdb
