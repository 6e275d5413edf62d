// Three-level set-associative cache hierarchy with LRU replacement.
//
// The cache model drives two things: the cycle cost of every memory instruction (which is what
// makes hash-table directory lookups the hotspot they are in the paper's Listing 1) and the
// cache-miss PMU events that sampling configurations can be armed on.
#ifndef DFP_SRC_VCPU_CACHE_H_
#define DFP_SRC_VCPU_CACHE_H_

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

// One inclusive cache level with exact LRU replacement. Each set keeps the tags of its valid
// ways in most-recently-used order, so a hit moves its tag to the front and a miss into a full
// set drops the last one. That evicts exactly the line an age-stamped LRU would (every access
// has a unique time and invalid ways fill first) while storing 8 bytes per way instead of a
// {tag, age} pair. Ways past a set's valid count are never read, so a fresh level writes only
// the counts, not the tag array.
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
  uint32_t tag_shift_;  // log2(kCacheLineBytes * set count): address bits above the set index.
  std::unique_ptr<uint64_t[]> tags_;  // set-major: tags_[set * ways_ + rank], rank 0 = MRU.
  std::unique_ptr<uint8_t[]> valid_;  // Valid ways per set: ranks [0, valid_[set]) hold tags.
};

class CacheHierarchy {
 public:
  CacheHierarchy() : l1_(kL1Cache), l2_(kL2Cache), l3_(kL3Cache) {}

  // Simulates a data access (loads and stores both allocate).
  CacheAccessResult Access(VAddr addr);

  const CacheStats& stats() const { return stats_; }

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  CacheLevel l3_;
  CacheStats stats_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_CACHE_H_
