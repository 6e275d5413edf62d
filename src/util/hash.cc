#include "src/util/hash.h"

#include <array>
#include <bit>
#include <cstddef>

namespace dfp {
namespace {

// CRC32-C (polynomial 0x1EDC6F41, reflected 0x82F63B78) slicing-by-8 tables: kCrcTables[0] is
// the byte-wise table and kCrcTables[k][i] is the CRC of byte i followed by k zero bytes, so one
// 8-byte step is eight independent lookups instead of eight dependent ones.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

}  // namespace

uint32_t Crc32u64(uint32_t seed, uint64_t value) {
  const uint32_t lo = seed ^ static_cast<uint32_t>(value);
  const uint32_t hi = static_cast<uint32_t>(value >> 32);
  return kCrcTables[7][lo & 0xFFu] ^ kCrcTables[6][(lo >> 8) & 0xFFu] ^
         kCrcTables[5][(lo >> 16) & 0xFFu] ^ kCrcTables[4][lo >> 24] ^
         kCrcTables[3][hi & 0xFFu] ^ kCrcTables[2][(hi >> 8) & 0xFFu] ^
         kCrcTables[1][(hi >> 16) & 0xFFu] ^ kCrcTables[0][hi >> 24];
}

uint64_t HashKey(uint64_t key) {
  // Matches the instruction sequence emitted by the code generator:
  //   %7 = crc32 kHashSeed1, %key
  //   %8 = crc32 kHashSeed2, %key
  //   %9 = rotr %8, 32
  //   %10 = xor %7, %9
  //   %11 = mul %10, kHashMultiplier
  uint64_t lane1 = Crc32u64(static_cast<uint32_t>(kHashSeed1), key);
  uint64_t lane2 = Crc32u64(static_cast<uint32_t>(kHashSeed2), key);
  uint64_t mixed = lane1 ^ std::rotr(lane2, 32);
  return mixed * kHashMultiplier;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return std::rotr(a, 17) ^ (b * kHashMultiplier);
}

}  // namespace dfp
