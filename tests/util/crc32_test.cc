#include "src/util/crc32.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace sdb {
namespace {

// The bytewise table loop Crc32Update replaced, kept as the reference.
uint32_t ReferenceCrc32Update(uint32_t crc, const uint8_t* data, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, StandardCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseLoopAtRandomLengthsAndOffsets) {
  Rng rng(41);
  std::vector<uint8_t> buffer(4096 + 16);
  for (uint8_t& b : buffer) {
    b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  for (int k = 0; k < 600; ++k) {
    const size_t offset = static_cast<size_t>(rng.NextBounded(16));
    // Every length up to 64 (all tail sizes around the 8-byte blocks), then
    // random lengths up to 4096.
    const size_t size = k <= 64 ? static_cast<size_t>(k)
                                : static_cast<size_t>(rng.NextBounded(4097));
    const uint8_t* data = buffer.data() + offset;
    const uint32_t seed = k % 3 == 0 ? 0u : static_cast<uint32_t>(rng.NextU64());
    ASSERT_EQ(Crc32Update(seed, data, size), ReferenceCrc32Update(seed, data, size))
        << "offset " << offset << " size " << size;
  }
}

TEST(Crc32Test, IncrementalEqualsOneShotAtEverySplit) {
  Rng rng(43);
  std::vector<uint8_t> bytes(100);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextBounded(256));
  }
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    uint32_t crc = Crc32Update(0, bytes.data(), split);
    crc = Crc32Update(crc, bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(crc, whole) << split;
  }
}

}  // namespace
}  // namespace sdb
