// The wire protocol between the SDB Runtime and the microcontroller.
//
// The paper's prototype connects the OS to the controller board over a
// serial transport (a Bluetooth link standing in for the power-management
// serial bus, §4.1). This module implements that link: framed, checksummed
// messages carrying the four SDB APIs, an incremental decoder that resyncs
// after corruption, and client/server endpoints.
//
// Frame layout (little-endian payloads):
//   0xA5 | length (1 byte, payload size) | type (1 byte) | payload | crc16 (2 bytes)
// The CRC (CCITT-FALSE) covers length, type and payload.
//
// Mutating commands (the setters, transfers and profile selection) carry a
// 2-byte sequence number as the first payload bytes. The server keeps the
// last applied (sequence, request, response) and replays the cached
// response when the same command arrives again, so a retry after a lost
// reply is never double-applied. Reads (kQueryStatus) are sequence-free.
// After a microcontroller reboot every mutating command is refused until
// the client runs the kResync handshake (the client does this
// transparently and replays the refused command once).
#ifndef SRC_HW_COMMAND_LINK_H_
#define SRC_HW_COMMAND_LINK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/hw/microcontroller.h"
#include "src/util/status.h"

namespace sdb {

class FaultInjector;

enum class MessageType : uint8_t {
  kSetDischargeRatios = 0x01,
  kSetChargeRatios = 0x02,
  kChargeOneFromAnother = 0x03,
  kQueryStatus = 0x04,
  kSelectProfile = 0x05,
  kResync = 0x06,        // Post-reboot handshake; empty payload.
  kAck = 0x80,           // Payload: 1 status byte (0 == OK).
  kStatusReport = 0x81,  // Payload: per-battery status records.
  kResyncAck = 0x82,     // Payload: 4-byte boot count (LE).
};

struct Frame {
  MessageType type;
  std::vector<uint8_t> payload;
};

// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF).
uint16_t Crc16(const uint8_t* data, size_t size);

// Serialises a frame to bytes.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

// Incremental frame decoder: feed bytes as they arrive; complete, valid
// frames pop out. Corrupt frames (bad CRC) are dropped and counted; the
// decoder hunts for the next start byte.
class FrameDecoder {
 public:
  // Feeds one byte; returns a frame when one completes.
  std::optional<Frame> Feed(uint8_t byte);

  // Feeds a buffer; appends completed frames to `out`.
  void Feed(const std::vector<uint8_t>& bytes, std::vector<Frame>& out);

  size_t crc_errors() const { return crc_errors_; }
  size_t frames_decoded() const { return frames_decoded_; }

 private:
  enum class State { kIdle, kLength, kType, kPayload, kCrcHigh, kCrcLow };
  State state_ = State::kIdle;
  uint8_t length_ = 0;
  uint8_t type_ = 0;
  std::vector<uint8_t> payload_;
  uint16_t running_crc_ = 0;  // CRC over length, type and payload so far.
  uint16_t crc_ = 0;          // The CRC the frame carries.
  size_t crc_errors_ = 0;
  size_t frames_decoded_ = 0;
};

// Mutable endpoint state for checkpoint/restore. The decoders are empty
// between the synchronous roundtrips both endpoints run, so they carry no
// state worth snapshotting.
struct LinkServerState {
  uint32_t known_boot = 0;
  bool have_last = false;
  uint16_t last_seq = 0;
  uint8_t last_type = 0;
  std::vector<uint8_t> last_payload;
  std::vector<uint8_t> last_response;
  uint64_t replayed_commands = 0;
};

struct LinkClientState {
  uint16_t next_seq = 1;
  uint32_t last_boot_count = 0;
  uint64_t resyncs = 0;
};

// Firmware-side endpoint: executes decoded command frames against the
// microcontroller and produces response bytes.
class CommandLinkServer {
 public:
  // `micro` must outlive the server.
  explicit CommandLinkServer(SdbMicrocontroller* micro);

  // Feeds raw bytes from the wire; returns response bytes to send back
  // (acks and status reports, one response per completed command frame).
  std::vector<uint8_t> Receive(const std::vector<uint8_t>& bytes);

  size_t crc_errors() const { return decoder_.crc_errors(); }
  // Commands answered from the idempotent-replay cache instead of being
  // applied a second time.
  uint64_t replayed_commands() const { return replayed_commands_; }

  // Checkpoint/restore of the replay cache + boot tracking.
  LinkServerState SaveState() const;
  void RestoreState(const LinkServerState& state);

 private:
  std::vector<uint8_t> Execute(const Frame& frame);
  // Sequence-checked execution of the mutating command types.
  std::vector<uint8_t> ExecuteCommand(const Frame& frame);

  SdbMicrocontroller* micro_;
  FrameDecoder decoder_;
  // Idempotent-replay cache: the last applied command and its response.
  // A reboot (observed through the micro's boot counter) invalidates it.
  uint32_t known_boot_ = 0;
  bool have_last_ = false;
  uint16_t last_seq_ = 0;
  MessageType last_type_ = MessageType::kAck;
  std::vector<uint8_t> last_payload_;
  std::vector<uint8_t> last_response_;
  uint64_t replayed_commands_ = 0;
};

// OS-side endpoint: the four APIs as serialised calls. `transport` delivers
// request bytes and returns response bytes (tests wire it straight to a
// CommandLinkServer, optionally through a lossy channel).
class CommandLinkClient {
 public:
  using Transport = std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>;

  explicit CommandLinkClient(Transport transport);

  Status SetDischargeRatios(const std::vector<double>& ratios);
  Status SetChargeRatios(const std::vector<double>& ratios);
  Status ChargeOneFromAnother(uint8_t from, uint8_t to, Power power, Duration duration);
  StatusOr<std::vector<BatteryStatus>> QueryBatteryStatus();
  Status SelectChargeProfile(uint8_t battery, uint8_t profile);

  // Attaches a fault injector (non-owning; detach with nullptr). While
  // attached, every roundtrip may be dropped (injected timeout) or have its
  // reply corrupted before decoding.
  void AttachFaultInjector(FaultInjector* injector) { fault_ = injector; }

  // Post-reboot handshake: resets the sequence stream and records the
  // controller's boot count. Run transparently when a command is refused
  // with FailedPrecondition, but callable directly.
  Status Resync();
  uint32_t last_boot_count() const { return last_boot_count_; }
  uint64_t resyncs() const { return resyncs_; }

  // Warm-restart reconciliation: adopt the controller's boot count without
  // a wire roundtrip (the restore path resyncs the micro directly and
  // counts the handshake itself).
  void AdoptBootCount(uint32_t boot_count) { last_boot_count_ = boot_count; }

  // Checkpoint/restore of the sequence stream + boot tracking.
  LinkClientState SaveState() const;
  void RestoreState(const LinkClientState& state);

 private:
  // Sends a frame and decodes the single expected response frame.
  StatusOr<Frame> Roundtrip(const Frame& request);
  Status RoundtripAck(const Frame& request);
  // Prefixes the sequence number, sends, and transparently resyncs +
  // replays once when the controller reports a pending reboot.
  Status SendCommand(Frame request);

  Transport transport_;
  FrameDecoder decoder_;
  FaultInjector* fault_ = nullptr;
  uint16_t next_seq_ = 1;
  uint32_t last_boot_count_ = 0;
  uint64_t resyncs_ = 0;
};

}  // namespace sdb

#endif  // SRC_HW_COMMAND_LINK_H_
