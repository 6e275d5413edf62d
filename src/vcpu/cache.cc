#include "src/vcpu/cache.h"

#include <bit>

#include "src/util/check.h"

namespace dfp {

static_assert(std::has_single_bit(kCacheLineBytes));

CacheLevel::CacheLevel(const CacheLevelConfig& config)
    : ways_(config.ways), latency_(config.latency) {
  uint64_t line_count = config.size_bytes / kCacheLineBytes;
  DFP_CHECK(line_count % ways_ == 0);
  set_count_ = static_cast<uint32_t>(line_count / ways_);
  DFP_CHECK(set_count_ > 0 && (set_count_ & (set_count_ - 1)) == 0);
  line_shift_ = static_cast<uint32_t>(std::countr_zero(kCacheLineBytes));
  lines_.resize(line_count);
}

bool CacheLevel::Access(VAddr addr) {
  uint64_t line_addr = addr >> line_shift_;
  uint32_t set = static_cast<uint32_t>(line_addr & (set_count_ - 1));
  uint64_t tag = line_addr >> std::countr_zero(static_cast<uint64_t>(set_count_));
  Line* set_lines = &lines_[static_cast<size_t>(set) * ways_];
  ++tick_;
  uint32_t victim = 0;
  uint64_t victim_age = ~0ull;
  for (uint32_t way = 0; way < ways_; ++way) {
    if (set_lines[way].tag == tag) {
      set_lines[way].age = tick_;
      return true;
    }
    if (set_lines[way].age < victim_age) {
      victim_age = set_lines[way].age;
      victim = way;
    }
  }
  set_lines[victim].tag = tag;
  set_lines[victim].age = tick_;
  return false;
}

void CacheLevel::Reset() {
  for (Line& line : lines_) {
    line = Line();
  }
  tick_ = 0;
}

CacheAccessResult CacheHierarchy::Access(VAddr addr) {
  ++stats_.accesses;
  if (l1_.Access(addr)) {
    return {1, l1_.latency()};
  }
  ++stats_.l1_misses;
  if (l2_.Access(addr)) {
    return {2, l2_.latency()};
  }
  ++stats_.l2_misses;
  if (l3_.Access(addr)) {
    return {3, l3_.latency()};
  }
  ++stats_.l3_misses;
  return {4, kMemoryLatencyCycles};
}

void CacheHierarchy::Reset() {
  l1_.Reset();
  l2_.Reset();
  l3_.Reset();
  stats_ = CacheStats();
}

}  // namespace dfp
