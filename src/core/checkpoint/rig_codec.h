// Section codecs for the rig's checkpointable components (DESIGN.md §16):
// the microcontroller (pack lanes, gauges, circuits, fault injector), the
// safety supervisor, the command-link endpoints and the SDB Runtime. Each
// section's layout is one field list (rig_codec.cc), shared by encode and
// decode through wire.h's field vocabulary: Encode* runs it with a
// ByteWriter to produce the section payload, Decode* runs it with a
// ByteReader and is the truncation-checked inverse (kInvalidArgument on
// damage, trailing bytes included).
//
// The os-layer sections (predictor, classifier) and the simulator loop
// section are field lists at the emu layer (src/emu/crash.cc) — core cannot
// depend on os/emu.
#ifndef SRC_CORE_CHECKPOINT_RIG_CODEC_H_
#define SRC_CORE_CHECKPOINT_RIG_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/core/runtime.h"
#include "src/hw/command_link.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"
#include "src/util/status.h"

namespace sdb {
namespace checkpoint {

// kSectionMicro.
std::vector<uint8_t> EncodeMicroState(const MicroState& state);
StatusOr<MicroState> DecodeMicroState(const std::vector<uint8_t>& bytes);

// kSectionSafety.
std::vector<uint8_t> EncodeSupervisorState(const SafetySupervisor::SupervisorState& state);
StatusOr<SafetySupervisor::SupervisorState> DecodeSupervisorState(
    const std::vector<uint8_t>& bytes);

// kSectionLink: client + server endpoint state in one section.
struct LinkState {
  LinkClientState client;
  LinkServerState server;
};
std::vector<uint8_t> EncodeLinkState(const LinkState& state);
StatusOr<LinkState> DecodeLinkState(const std::vector<uint8_t>& bytes);

// kSectionRuntime.
std::vector<uint8_t> EncodeRuntimeState(const RuntimeState& state);
StatusOr<RuntimeState> DecodeRuntimeState(const std::vector<uint8_t>& bytes);

}  // namespace checkpoint
}  // namespace sdb

#endif  // SRC_CORE_CHECKPOINT_RIG_CODEC_H_
