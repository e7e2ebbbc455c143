#include "src/util/crc32.h"

namespace sdb {
namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320, built once.
// t[0] is the classic bytewise table; t[k][b] is the register contribution
// of byte b followed by k zero bytes, so eight table reads fold eight input
// bytes at once and give exactly the bytewise loop's CRC.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables = [] {
    Crc32Tables built;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      built.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        uint32_t prev = built.t[k - 1][i];
        built.t[k][i] = built.t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return built;
  }();
  return tables;
}

// Little-endian load of four bytes, whatever the host's byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const uint8_t* data, size_t size) {
  const Crc32Tables& tables = Tables();
  const auto& t = tables.t;
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (size >= 8) {
    uint32_t lo = LoadLe32(data) ^ c;
    uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24];
    c ^= t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    data += 8;
    size -= 8;
  }
  for (size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const uint8_t* data, size_t size) {
  return Crc32Update(0, data, size);
}

}  // namespace sdb
