// Chaining hash table layout shared between generated code and the host.
//
// This is the paper's canonical "shared source location": every join build and every group-by in
// a query calls the same pre-compiled insert function, so samples landing inside it cannot be
// attributed to an operator without Register Tagging or call-stack sampling.
//
// Layout (all fields 8 bytes, little-endian, addresses are VMem offsets):
//   header:  +0  directory base   +8  directory shift (index = hash >> shift)
//            +16 entry size       +24 bump next (next free entry)
//            +32 bump end         +40 entry count
//            +48 directory slot count (for generated scans over all chains)
//            +56 stripe locks (64 x 8 bytes; taken by rt_ht_insert_locked, stripe = hash & 63)
//   entry:   +0  next entry (0 terminates the chain)
//            +8  hash
//            +16 payload (keys and aggregate state, layout decided by the code generator)
//
// The directory is indexed with the hash's HIGH bits (hash >> shift), matching the generated
// code in the paper's Listing 1 — the crc32+multiply mix has weak low bits.
#ifndef DFP_SRC_RUNTIME_HASHTABLE_H_
#define DFP_SRC_RUNTIME_HASHTABLE_H_

#include <cstdint>
#include <vector>

#include "src/vcpu/vmem.h"

namespace dfp {

inline constexpr int64_t kHtDirBase = 0;
inline constexpr int64_t kHtDirShift = 8;
inline constexpr int64_t kHtEntrySize = 16;
inline constexpr int64_t kHtBumpNext = 24;
inline constexpr int64_t kHtBumpEnd = 32;
inline constexpr int64_t kHtCount = 40;
inline constexpr int64_t kHtDirCount = 48;
inline constexpr int64_t kHtStripeLocks = 56;
inline constexpr uint64_t kHtNumStripes = 64;  // Must be a power of two (stripe = hash & 63).
inline constexpr uint64_t kHtHeaderBytes = 56 + kHtNumStripes * 8;

inline constexpr int64_t kHtEntryNext = 0;
inline constexpr int64_t kHtEntryHash = 8;
inline constexpr int64_t kHtEntryPayload = 16;

// Creates a hash table in `region` with room for exactly `capacity` entries of
// `payload_bytes` payload each. The directory is sized to the next power of two >= capacity.
// Entry memory is zero-initialized (fresh region bytes), so aggregate payloads start at zero.
VAddr CreateHashTable(VMem& mem, uint32_t region, uint64_t capacity, uint64_t payload_bytes);

// Host-side view of a table built by generated code (tests, Volcano interpreter, debugging).
class HashTableView {
 public:
  HashTableView(const VMem& mem, VAddr table) : mem_(mem), table_(table) {}

  uint64_t count() const { return mem_.Read<uint64_t>(table_ + kHtCount); }

  // Addresses of all entries, enumerated directory-slot by directory-slot (the same order
  // generated table scans over the hash table observe).
  std::vector<VAddr> Entries() const;

  // Addresses of the entries in the chain for `hash`.
  std::vector<VAddr> Chain(uint64_t hash) const;

 private:
  const VMem& mem_;
  VAddr table_;
};

}  // namespace dfp

#endif  // DFP_SRC_RUNTIME_HASHTABLE_H_
