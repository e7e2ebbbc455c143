#include "src/hw/command_link.h"

#include <array>
#include <cstring>

#include "src/hw/fault.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace sdb {

namespace {

// Span names must be string literals (the tracer stores pointers), so map
// each wire message type to its own literal.
const char* RoundtripSpanName(MessageType type) {
  switch (type) {
    case MessageType::kSetDischargeRatios:
      return "link.set_discharge_ratios";
    case MessageType::kSetChargeRatios:
      return "link.set_charge_ratios";
    case MessageType::kChargeOneFromAnother:
      return "link.charge_one_from_another";
    case MessageType::kQueryStatus:
      return "link.query_status";
    case MessageType::kSelectProfile:
      return "link.select_profile";
    case MessageType::kResync:
      return "link.resync";
    default:
      return "link.roundtrip";
  }
}

constexpr uint8_t kStartByte = 0xA5;

// CRC-16/CCITT-FALSE one byte at a time: entry b is the bitwise register
// loop (poly 0x1021) run over b << 8. The CRC is linear, so feeding a byte is
// one lookup on the register's high byte xor the data byte.
constexpr std::array<uint16_t, 256> kCrc16Table = [] {
  std::array<uint16_t, 256> table{};
  for (size_t b = 0; b < table.size(); ++b) {
    uint16_t crc = static_cast<uint16_t>(b << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) != 0 ? static_cast<uint16_t>((crc << 1) ^ 0x1021)
                                : static_cast<uint16_t>(crc << 1);
    }
    table[b] = crc;
  }
  return table;
}();
constexpr uint16_t kCrc16Init = 0xFFFF;

uint16_t Crc16Update(uint16_t crc, uint8_t byte) {
  return static_cast<uint16_t>((crc << 8) ^ kCrc16Table[(crc >> 8) ^ byte]);
}
// Per-battery record size in a kStatusReport payload.
constexpr size_t kStatusRecordSize = 24;

void PutF32(std::vector<uint8_t>& out, float value) {
  uint8_t bytes[4];
  std::memcpy(bytes, &value, 4);
  out.insert(out.end(), bytes, bytes + 4);
}

float GetF32(const uint8_t* data) {
  float value;
  std::memcpy(&value, data, 4);
  return value;
}

uint8_t StatusToWireCode(const Status& status) {
  return status.ok() ? 0 : static_cast<uint8_t>(status.code());
}

Status WireCodeToStatus(uint8_t code) {
  if (code == 0) {
    return Status::Ok();
  }
  return Status(static_cast<StatusCode>(code), "remote error");
}

std::vector<double> DecodeRatios(const std::vector<uint8_t>& payload) {
  std::vector<double> ratios;
  for (size_t i = 0; i + 4 <= payload.size(); i += 4) {
    ratios.push_back(static_cast<double>(GetF32(payload.data() + i)));
  }
  return ratios;
}

std::vector<uint8_t> EncodeRatios(const std::vector<double>& ratios) {
  std::vector<uint8_t> payload;
  payload.reserve(ratios.size() * 4);
  for (double r : ratios) {
    PutF32(payload, static_cast<float>(r));
  }
  return payload;
}

std::vector<uint8_t> AckFrame(StatusCode code) {
  return EncodeFrame(Frame{MessageType::kAck, {static_cast<uint8_t>(code)}});
}

bool IsMutatingCommand(MessageType type) {
  switch (type) {
    case MessageType::kSetDischargeRatios:
    case MessageType::kSetChargeRatios:
    case MessageType::kChargeOneFromAnother:
    case MessageType::kSelectProfile:
      return true;
    default:
      return false;
  }
}

}  // namespace

uint16_t Crc16(const uint8_t* data, size_t size) {
  uint16_t crc = kCrc16Init;
  for (size_t i = 0; i < size; ++i) {
    crc = Crc16Update(crc, data[i]);
  }
  return crc;
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  SDB_CHECK(frame.payload.size() <= 255);
  std::vector<uint8_t> out;
  out.reserve(frame.payload.size() + 5);
  out.push_back(kStartByte);
  out.push_back(static_cast<uint8_t>(frame.payload.size()));
  out.push_back(static_cast<uint8_t>(frame.type));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  // CRC over length, type, payload.
  uint16_t crc = Crc16(out.data() + 1, out.size() - 1);
  out.push_back(static_cast<uint8_t>(crc >> 8));
  out.push_back(static_cast<uint8_t>(crc & 0xFF));
  return out;
}

std::optional<Frame> FrameDecoder::Feed(uint8_t byte) {
  switch (state_) {
    case State::kIdle:
      if (byte == kStartByte) {
        state_ = State::kLength;
      }
      return std::nullopt;
    case State::kLength:
      length_ = byte;
      payload_.clear();
      running_crc_ = Crc16Update(kCrc16Init, byte);
      state_ = State::kType;
      return std::nullopt;
    case State::kType:
      type_ = byte;
      running_crc_ = Crc16Update(running_crc_, byte);
      state_ = length_ > 0 ? State::kPayload : State::kCrcHigh;
      return std::nullopt;
    case State::kPayload:
      payload_.push_back(byte);
      running_crc_ = Crc16Update(running_crc_, byte);
      if (payload_.size() == length_) {
        state_ = State::kCrcHigh;
      }
      return std::nullopt;
    case State::kCrcHigh:
      crc_ = static_cast<uint16_t>(byte) << 8;
      state_ = State::kCrcLow;
      return std::nullopt;
    case State::kCrcLow: {
      crc_ |= byte;
      state_ = State::kIdle;
      if (running_crc_ != crc_) {
        ++crc_errors_;
        return std::nullopt;
      }
      ++frames_decoded_;
      return Frame{static_cast<MessageType>(type_), payload_};
    }
  }
  return std::nullopt;
}

void FrameDecoder::Feed(const std::vector<uint8_t>& bytes, std::vector<Frame>& out) {
  for (uint8_t b : bytes) {
    if (std::optional<Frame> frame = Feed(b)) {
      out.push_back(std::move(*frame));
    }
  }
}

CommandLinkServer::CommandLinkServer(SdbMicrocontroller* micro) : micro_(micro) {
  SDB_CHECK(micro_ != nullptr);
}

std::vector<uint8_t> CommandLinkServer::Receive(const std::vector<uint8_t>& bytes) {
  std::vector<Frame> frames;
  decoder_.Feed(bytes, frames);
  std::vector<uint8_t> response;
  for (const Frame& frame : frames) {
    std::vector<uint8_t> reply = Execute(frame);
    response.insert(response.end(), reply.begin(), reply.end());
  }
  return response;
}

std::vector<uint8_t> CommandLinkServer::Execute(const Frame& frame) {
  // A reboot since the last frame invalidates the replay cache: sequence
  // numbers from the previous boot must not suppress fresh commands.
  if (micro_->boot_count() != known_boot_) {
    known_boot_ = micro_->boot_count();
    have_last_ = false;
  }
  if (IsMutatingCommand(frame.type)) {
    return ExecuteCommand(frame);
  }
  switch (frame.type) {
    case MessageType::kQueryStatus: {
      if (micro_->in_reset()) {
        return AckFrame(StatusCode::kUnavailable);
      }
      std::vector<BatteryStatus> statuses = micro_->QueryBatteryStatus();
      Frame report{MessageType::kStatusReport, {}};
      for (const BatteryStatus& s : statuses) {
        PutF32(report.payload, static_cast<float>(s.soc));
        PutF32(report.payload, static_cast<float>(s.terminal_voltage.value()));
        PutF32(report.payload, static_cast<float>(s.cycle_count));
        PutF32(report.payload, static_cast<float>(s.full_capacity.value()));
        PutF32(report.payload, static_cast<float>(s.last_current.value()));
        PutF32(report.payload, static_cast<float>(s.temperature.value()));
      }
      return EncodeFrame(report);
    }
    case MessageType::kResync: {
      if (micro_->in_reset()) {
        return AckFrame(StatusCode::kUnavailable);
      }
      uint32_t boot = micro_->Resync();
      have_last_ = false;
      Frame ack{MessageType::kResyncAck, {}};
      ack.payload.push_back(static_cast<uint8_t>(boot & 0xFF));
      ack.payload.push_back(static_cast<uint8_t>((boot >> 8) & 0xFF));
      ack.payload.push_back(static_cast<uint8_t>((boot >> 16) & 0xFF));
      ack.payload.push_back(static_cast<uint8_t>((boot >> 24) & 0xFF));
      return EncodeFrame(ack);
    }
    default:
      return AckFrame(StatusCode::kInvalidArgument);
  }
}

std::vector<uint8_t> CommandLinkServer::ExecuteCommand(const Frame& frame) {
  if (frame.payload.size() < 2) {
    return AckFrame(StatusCode::kInvalidArgument);
  }
  const uint16_t seq =
      static_cast<uint16_t>(frame.payload[0] | (frame.payload[1] << 8));
  if (have_last_ && seq == last_seq_ && frame.type == last_type_ &&
      frame.payload == last_payload_) {
    // Idempotent replay: the command was already applied and the reply was
    // lost; answer from the cache without re-applying.
    ++replayed_commands_;
    return last_response_;
  }
  const std::vector<uint8_t> body(frame.payload.begin() + 2, frame.payload.end());
  Status status = Status::Ok();
  switch (frame.type) {
    case MessageType::kSetDischargeRatios:
      status = micro_->SetDischargeRatios(DecodeRatios(body));
      break;
    case MessageType::kSetChargeRatios:
      status = micro_->SetChargeRatios(DecodeRatios(body));
      break;
    case MessageType::kChargeOneFromAnother: {
      if (body.size() != 10) {
        status = InvalidArgumentError("bad transfer payload");
        break;
      }
      uint8_t from = body[0];
      uint8_t to = body[1];
      float power = GetF32(body.data() + 2);
      float duration = GetF32(body.data() + 6);
      status = micro_->ChargeOneFromAnother(from, to, Watts(power), Seconds(duration));
      break;
    }
    case MessageType::kSelectProfile: {
      if (body.size() != 2) {
        status = InvalidArgumentError("bad profile payload");
        break;
      }
      status = micro_->SelectChargeProfile(body[0], body[1]);
      break;
    }
    default:
      status = InvalidArgumentError("not a command");
      break;
  }
  std::vector<uint8_t> reply = EncodeFrame(Frame{MessageType::kAck, {StatusToWireCode(status)}});
  // Resync-required and in-reset rejections are not cached: after the
  // handshake the same sequence number must execute, not replay the refusal.
  if (status.code() != StatusCode::kFailedPrecondition &&
      status.code() != StatusCode::kUnavailable) {
    have_last_ = true;
    last_seq_ = seq;
    last_type_ = frame.type;
    last_payload_ = frame.payload;
    last_response_ = reply;
  }
  return reply;
}

CommandLinkClient::CommandLinkClient(Transport transport) : transport_(std::move(transport)) {
  SDB_CHECK(transport_ != nullptr);
}

StatusOr<Frame> CommandLinkClient::Roundtrip(const Frame& request) {
  SDB_TRACE_SPAN("hw", RoundtripSpanName(request.type));
  if (fault_ != nullptr && fault_->DropQuery()) {
    return UnavailableError("link timeout (injected)");
  }
  std::vector<uint8_t> response_bytes = transport_(EncodeFrame(request));
  if (fault_ != nullptr) {
    fault_->MaybeCorruptReply(response_bytes);
  }
  std::vector<Frame> frames;
  decoder_.Feed(response_bytes, frames);
  if (frames.empty()) {
    return UnavailableError("no response frame (link corruption?)");
  }
  return frames.front();
}

Status CommandLinkClient::RoundtripAck(const Frame& request) {
  StatusOr<Frame> response = Roundtrip(request);
  if (!response.ok()) {
    return response.status();
  }
  if (response->type != MessageType::kAck || response->payload.size() != 1) {
    return InternalError("malformed ack");
  }
  return WireCodeToStatus(response->payload[0]);
}

Status CommandLinkClient::SendCommand(Frame request) {
  const uint16_t seq = next_seq_;
  request.payload.insert(request.payload.begin(),
                         {static_cast<uint8_t>(seq & 0xFF),
                          static_cast<uint8_t>((seq >> 8) & 0xFF)});
  Status status = RoundtripAck(request);
  if (status.code() == StatusCode::kFailedPrecondition) {
    // The controller rebooted and refuses commands until the handshake
    // completes; resync and replay the refused command once.
    Status resync = Resync();
    if (!resync.ok()) {
      return resync;
    }
    status = RoundtripAck(request);
  }
  if (status.code() != StatusCode::kUnavailable) {
    // The server consumed this sequence number (applied or rejected the
    // command). On a transport failure the reply may have been lost after
    // the command applied, so the seq is reused and the retry hits the
    // server's idempotent-replay cache.
    ++next_seq_;
  }
  return status;
}

Status CommandLinkClient::Resync() {
  StatusOr<Frame> response = Roundtrip(Frame{MessageType::kResync, {}});
  if (!response.ok()) {
    return response.status();
  }
  if (response->type == MessageType::kAck && response->payload.size() == 1) {
    Status status = WireCodeToStatus(response->payload[0]);
    return status.ok() ? InternalError("malformed resync ack") : status;
  }
  if (response->type != MessageType::kResyncAck || response->payload.size() != 4) {
    return InternalError("malformed resync ack");
  }
  last_boot_count_ = static_cast<uint32_t>(response->payload[0]) |
                     (static_cast<uint32_t>(response->payload[1]) << 8) |
                     (static_cast<uint32_t>(response->payload[2]) << 16) |
                     (static_cast<uint32_t>(response->payload[3]) << 24);
  next_seq_ = 1;
  ++resyncs_;
  static obs::Counter* resync_counter =
      obs::MetricsRegistry::Global().GetCounter("sdb.hw.link_resyncs");
  resync_counter->Increment();
  return Status::Ok();
}

Status CommandLinkClient::SetDischargeRatios(const std::vector<double>& ratios) {
  return SendCommand(Frame{MessageType::kSetDischargeRatios, EncodeRatios(ratios)});
}

Status CommandLinkClient::SetChargeRatios(const std::vector<double>& ratios) {
  return SendCommand(Frame{MessageType::kSetChargeRatios, EncodeRatios(ratios)});
}

Status CommandLinkClient::ChargeOneFromAnother(uint8_t from, uint8_t to, Power power,
                                               Duration duration) {
  Frame request{MessageType::kChargeOneFromAnother, {from, to}};
  PutF32(request.payload, static_cast<float>(power.value()));
  PutF32(request.payload, static_cast<float>(duration.value()));
  return SendCommand(std::move(request));
}

Status CommandLinkClient::SelectChargeProfile(uint8_t battery, uint8_t profile) {
  return SendCommand(Frame{MessageType::kSelectProfile, {battery, profile}});
}

StatusOr<std::vector<BatteryStatus>> CommandLinkClient::QueryBatteryStatus() {
  StatusOr<Frame> response = Roundtrip(Frame{MessageType::kQueryStatus, {}});
  if (!response.ok()) {
    return response.status();
  }
  if (response->type == MessageType::kAck && response->payload.size() == 1) {
    // Queries fail with an error ack while the controller is held in reset.
    Status status = WireCodeToStatus(response->payload[0]);
    return status.ok() ? InternalError("malformed status report") : status;
  }
  if (response->type != MessageType::kStatusReport ||
      response->payload.size() % kStatusRecordSize != 0) {
    return InternalError("malformed status report");
  }
  std::vector<BatteryStatus> statuses;
  for (size_t offset = 0; offset < response->payload.size(); offset += kStatusRecordSize) {
    const uint8_t* record = response->payload.data() + offset;
    BatteryStatus s;
    s.soc = GetF32(record);
    s.terminal_voltage = Volts(GetF32(record + 4));
    s.cycle_count = GetF32(record + 8);
    s.full_capacity = Coulombs(GetF32(record + 12));
    s.last_current = Amps(GetF32(record + 16));
    s.temperature = Kelvin(GetF32(record + 20));
    statuses.push_back(s);
  }
  return statuses;
}

LinkServerState CommandLinkServer::SaveState() const {
  LinkServerState state;
  state.known_boot = known_boot_;
  state.have_last = have_last_;
  state.last_seq = last_seq_;
  state.last_type = static_cast<uint8_t>(last_type_);
  state.last_payload = last_payload_;
  state.last_response = last_response_;
  state.replayed_commands = replayed_commands_;
  return state;
}

void CommandLinkServer::RestoreState(const LinkServerState& state) {
  known_boot_ = state.known_boot;
  have_last_ = state.have_last;
  last_seq_ = state.last_seq;
  last_type_ = static_cast<MessageType>(state.last_type);
  last_payload_ = state.last_payload;
  last_response_ = state.last_response;
  replayed_commands_ = state.replayed_commands;
}

LinkClientState CommandLinkClient::SaveState() const {
  LinkClientState state;
  state.next_seq = next_seq_;
  state.last_boot_count = last_boot_count_;
  state.resyncs = resyncs_;
  return state;
}

void CommandLinkClient::RestoreState(const LinkClientState& state) {
  next_seq_ = state.next_seq;
  last_boot_count_ = state.last_boot_count;
  resyncs_ = state.resyncs;
}

}  // namespace sdb
