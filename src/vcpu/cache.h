// Three-level set-associative cache hierarchy with LRU replacement.
//
// The cache model drives two things: the cycle cost of every memory instruction (which is what
// makes hash-table directory lookups the hotspot they are in the paper's Listing 1) and the
// cache-miss PMU events that sampling configurations can be armed on.
#ifndef DFP_SRC_VCPU_CACHE_H_
#define DFP_SRC_VCPU_CACHE_H_

#include <bit>
#include <cstdint>
#include <memory>

#include "src/vcpu/vmem.h"

namespace dfp {

// Outcome of one memory access: the level that served it and the total latency in cycles.
struct CacheAccessResult {
  int hit_level = 0;  // 1 = L1, 2 = L2, 3 = L3, 4 = memory
  uint32_t latency = 0;
};

struct CacheLevelConfig {
  uint64_t size_bytes = 0;
  uint32_t ways = 0;
  uint32_t latency = 0;  // Cycles to serve a hit at this level.
};

// The simulated core's cache geometry: a Skylake-class 32 KiB L1 and 256 KiB L2 and an 8 MiB
// L3, 64-byte lines, and the local-DRAM latency of an access that misses all three.
inline constexpr uint32_t kCacheLineBytes = 64;
inline constexpr CacheLevelConfig kL1Cache{32 * 1024, 8, 4};
inline constexpr CacheLevelConfig kL2Cache{256 * 1024, 4, 12};
inline constexpr CacheLevelConfig kL3Cache{8 * 1024 * 1024, 16, 42};
inline constexpr uint32_t kMemoryLatencyCycles = 220;

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_misses = 0;
};

// log2 of one way's span (kCacheLineBytes x set count): the address bits below a level's tag.
constexpr uint32_t TagShift(const CacheLevelConfig& level) {
  return static_cast<uint32_t>(std::countr_zero(level.size_bytes / level.ways));
}

// True when a `Tag` holds every tag bit of every VMem address (below kMaxVMemBytes) at `level`.
// An address at or beyond kMaxVMemBytes loses its top tag bits and may alias another line. That
// is harmless: the address is also at or beyond its VMem's capacity, so the VMem bounds check
// right after its cache lookup fails, and no number depends on that lookup.
template <typename Tag>
constexpr bool TagIsExact(const CacheLevelConfig& level) {
  return std::countr_zero(kMaxVMemBytes) - TagShift(level) <= 8 * sizeof(Tag);
}

// One inclusive cache level with exact LRU replacement. Each set keeps the tags of its valid
// ways in most-recently-used order, so a hit moves its tag to the front and a miss into a full
// set drops the last one. That evicts exactly the line an age-stamped LRU would (every access
// has a unique time and invalid ways fill first) while storing one `Tag` per way instead of a
// {tag, age} pair. `Tag` is the narrowest integer TagIsExact allows, so the 8 MiB L3 holds 2
// bytes per way (256 KiB of tags). Ways past a set's valid count are never read, so a fresh
// level writes only the counts, not the tag array.
template <typename Tag>
class CacheLevel {
 public:
  explicit CacheLevel(const CacheLevelConfig& config);

  // Returns true on hit; on miss the line is installed (allocate-on-miss for loads and stores).
  bool Access(VAddr addr);

  uint32_t latency() const { return latency_; }

 private:
  uint32_t ways_;
  uint32_t latency_;
  uint32_t set_mask_;
  uint32_t tag_shift_;  // TagShift(config): address bits above the set index form the tag.
  std::unique_ptr<Tag[]> tags_;       // set-major: tags_[set * ways_ + rank], rank 0 = MRU.
  std::unique_ptr<uint8_t[]> valid_;  // Valid ways per set: ranks [0, valid_[set]) hold tags.
};

extern template class CacheLevel<uint16_t>;
extern template class CacheLevel<uint32_t>;

// Each level's tag type. Addresses below kMaxVMemBytes = 2^35 leave 35 - 12 = 23 tag bits at L1,
// 35 - 16 = 19 at L2 and 35 - 19 = 16 at L3.
using L1Tag = uint32_t;
using L2Tag = uint32_t;
using L3Tag = uint16_t;
static_assert(TagIsExact<L1Tag>(kL1Cache));
static_assert(TagIsExact<L2Tag>(kL2Cache));
static_assert(TagIsExact<L3Tag>(kL3Cache));

class CacheHierarchy {
 public:
  CacheHierarchy() : l1_(kL1Cache), l2_(kL2Cache), l3_(kL3Cache) {}

  // Simulates a data access (loads and stores both allocate).
  CacheAccessResult Access(VAddr addr);

  const CacheStats& stats() const { return stats_; }

 private:
  CacheLevel<L1Tag> l1_;
  CacheLevel<L2Tag> l2_;
  CacheLevel<L3Tag> l3_;
  CacheStats stats_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_CACHE_H_
