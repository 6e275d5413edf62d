#include "src/vcpu/cache.h"

#include <bit>

#include "src/util/check.h"

namespace dfp {
namespace {

static_assert(std::has_single_bit(kCacheLineBytes));
constexpr int kLineShift = std::countr_zero(kCacheLineBytes);

}  // namespace

template <typename Tag>
CacheLevel<Tag>::CacheLevel(const CacheLevelConfig& config)
    : ways_(config.ways), latency_(config.latency) {
  const uint64_t line_count = config.size_bytes / kCacheLineBytes;
  DFP_CHECK(ways_ <= UINT8_MAX && line_count % ways_ == 0);
  const uint64_t set_count = line_count / ways_;
  DFP_CHECK(std::has_single_bit(set_count) && set_count <= UINT32_MAX);
  set_mask_ = static_cast<uint32_t>(set_count - 1);
  tag_shift_ = TagShift(config);
  tags_ = std::make_unique_for_overwrite<Tag[]>(line_count);
  valid_ = std::make_unique<uint8_t[]>(set_count);
}

template <typename Tag>
bool CacheLevel<Tag>::Access(VAddr addr) {
  const uint32_t set = static_cast<uint32_t>(addr >> kLineShift) & set_mask_;
  const Tag tag = static_cast<Tag>(addr >> tag_shift_);
  Tag* ranks = &tags_[static_cast<size_t>(set) * ways_];
  const uint32_t valid = valid_[set];
  // Search in MRU order while shifting each passed tag one rank down: the accessed tag lands in
  // rank 0 and the tag displaced last fills the freed rank.
  Tag carry = tag;
  for (uint32_t rank = 0; rank < valid; ++rank) {
    const Tag held = ranks[rank];
    ranks[rank] = carry;
    if (held == tag) {
      return true;
    }
    carry = held;
  }
  // Miss: a set with a free way keeps every tag; a full set drops its LRU tag (`carry`).
  if (valid < ways_) {
    ranks[valid] = carry;
    valid_[set] = static_cast<uint8_t>(valid + 1);
  }
  return false;
}

template class CacheLevel<uint16_t>;
template class CacheLevel<uint32_t>;

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

}  // namespace dfp
