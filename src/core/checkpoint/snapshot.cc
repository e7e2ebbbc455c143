#include "src/core/checkpoint/snapshot.h"

#include <string>

#include "src/core/checkpoint/wire.h"
#include "src/util/crc32.h"

namespace sdb {
namespace checkpoint {

namespace {

// Offset of the first byte the CRC covers (everything after the crc field).
constexpr size_t kCrcCoverageStart = 16;

}  // namespace

const Section* Snapshot::FindSection(uint32_t id) const {
  for (const Section& section : sections) {
    if (section.id == id) {
      return &section;
    }
  }
  return nullptr;
}

void Snapshot::AddSection(uint32_t id, std::vector<uint8_t> bytes) {
  sections.push_back(Section{id, std::move(bytes)});
}

std::vector<uint8_t> EncodeSnapshot(const Snapshot& snapshot) {
  ByteWriter payload;
  for (const Section& section : snapshot.sections) {
    payload.Put(section.id);
    payload.Put(section.bytes.size());
    payload.PutBytes(section.bytes.data(), section.bytes.size());
  }

  ByteWriter out;
  out.Put(kMagic);
  out.Put(snapshot.version);
  out.Put(uint16_t{0});  // reserved
  out.Put(uint32_t{0});  // crc32 placeholder, stamped below
  out.Put(snapshot.config_digest);
  out.Put(snapshot.generation);
  out.Put(payload.size());
  out.PutBytes(payload.bytes().data(), payload.size());

  std::vector<uint8_t> bytes = out.TakeBytes();
  uint32_t crc = Crc32(bytes.data() + kCrcCoverageStart,
                       bytes.size() - kCrcCoverageStart);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

StatusOr<Snapshot> DecodeSnapshot(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kHeaderSize) {
    return InvalidArgumentError("checkpoint: snapshot shorter than header (" +
                                std::to_string(bytes.size()) + " byte(s))");
  }
  ByteReader header(bytes.data(), kHeaderSize);
  uint64_t magic = 0;
  uint16_t version = 0;
  uint16_t reserved = 0;
  uint32_t stored_crc = 0;
  Snapshot snapshot;
  uint64_t payload_size = 0;
  SDB_RETURN_IF_ERROR(header.Field(magic));
  SDB_RETURN_IF_ERROR(header.Field(version));
  SDB_RETURN_IF_ERROR(header.Field(reserved));
  SDB_RETURN_IF_ERROR(header.Field(stored_crc));
  SDB_RETURN_IF_ERROR(header.Field(snapshot.config_digest));
  SDB_RETURN_IF_ERROR(header.Field(snapshot.generation));
  SDB_RETURN_IF_ERROR(header.Field(payload_size));
  snapshot.version = version;
  if (magic != kMagic) {
    return InvalidArgumentError("checkpoint: bad magic");
  }
  // The reserved field sits outside the CRC range (which starts after the
  // crc word), so damage there is invisible to the checksum; a writer of
  // this format always emits zero, so anything else is corruption.
  if (reserved != 0) {
    return InvalidArgumentError("checkpoint: nonzero reserved header bytes");
  }
  if (payload_size != bytes.size() - kHeaderSize) {
    return InvalidArgumentError(
        "checkpoint: payload size mismatch (header says " +
        std::to_string(payload_size) + ", file holds " +
        std::to_string(bytes.size() - kHeaderSize) + ")");
  }
  uint32_t actual_crc = Crc32(bytes.data() + kCrcCoverageStart,
                              bytes.size() - kCrcCoverageStart);
  if (actual_crc != stored_crc) {
    return InvalidArgumentError("checkpoint: CRC mismatch (torn or corrupt write)");
  }

  ByteReader payload(bytes.data() + kHeaderSize, bytes.size() - kHeaderSize);
  while (payload.remaining() > 0) {
    uint32_t id = 0;
    uint64_t size = 0;
    SDB_RETURN_IF_ERROR(payload.Field(id));
    SDB_RETURN_IF_ERROR(payload.Field(size));
    if (size > payload.remaining()) {
      return InvalidArgumentError("checkpoint: section " + std::to_string(id) +
                                  " overruns payload");
    }
    Section section;
    section.id = id;
    const uint8_t* start = bytes.data() + kHeaderSize + payload.position();
    section.bytes.assign(start, start + size);
    SDB_RETURN_IF_ERROR(payload.Skip(static_cast<size_t>(size)));
    snapshot.sections.push_back(std::move(section));
  }
  return snapshot;
}

Status ValidateSchema(const Snapshot& snapshot, uint64_t expected_config_digest) {
  if (snapshot.version != kFormatVersion) {
    return FailedPreconditionError(
        "checkpoint: format version " + std::to_string(snapshot.version) +
        " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  if (snapshot.config_digest != expected_config_digest) {
    return FailedPreconditionError(
        "checkpoint: config digest mismatch (snapshot is from a different rig)");
  }
  return Status::Ok();
}

}  // namespace checkpoint
}  // namespace sdb
