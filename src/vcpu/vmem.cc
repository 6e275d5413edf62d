#include "src/vcpu/vmem.h"

#include <new>

#include "src/util/str.h"

namespace dfp {

VMem::VMem(uint64_t capacity) : capacity_(capacity), next_base_(64) {
  // The first 64 bytes are reserved so that address 0 acts as a null pointer and small
  // accidental offsets fault visibly in tests.
  DFP_CHECK(capacity >= next_base_);
  if (capacity > kMaxVMemBytes) {
    throw Error(StrFormat("VMem capacity %llu bytes exceeds the %llu-byte limit",
                          static_cast<unsigned long long>(capacity),
                          static_cast<unsigned long long>(kMaxVMemBytes)));
  }
  bytes_.reset(static_cast<uint8_t*>(std::calloc(capacity, 1)));
  if (bytes_ == nullptr) {
    throw std::bad_alloc();
  }
}

uint32_t VMem::CreateRegion(const std::string& name, uint64_t size) {
  // next_base_ <= capacity_ always holds, so the subtraction cannot wrap.
  DFP_CHECK(size <= capacity_ - next_base_);
  MemRegion region;
  region.name = name;
  region.base = next_base_;
  region.size = size;
  regions_.push_back(region);
  next_base_ += size;
  return static_cast<uint32_t>(regions_.size() - 1);
}

VAddr VMem::Alloc(uint32_t region_id, uint64_t bytes, uint64_t align) {
  DFP_CHECK(region_id < regions_.size());
  DFP_CHECK(align > 0 && (align & (align - 1)) == 0);
  MemRegion& region = regions_[region_id];
  uint64_t offset = (region.used + align - 1) & ~(align - 1);
  DFP_CHECK(offset <= region.size && bytes <= region.size - offset);
  region.used = offset + bytes;
  return region.base + offset;
}

void VMem::ResetRegion(uint32_t region_id) {
  DFP_CHECK(region_id < regions_.size());
  MemRegion& region = regions_[region_id];
  std::memset(bytes_.get() + region.base, 0, region.used);
  region.used = 0;
}

void VMem::MarkPartitioned(VAddr base, uint64_t bytes) {
  if (bytes == 0) {
    return;
  }
  if (!partitioned_.empty()) {
    const MemExtent& last = partitioned_.back();
    DFP_CHECK(last.base + last.size <= base);
  }
  partitioned_.push_back(MemExtent{base, bytes});
}

void VMem::SetExtentPlacement(VAddr base, PartitionMap map) {
  DFP_CHECK(!map.empty());
  DFP_CHECK(map.back().end_frac == kPlacementDenom);
  for (size_t i = 1; i < map.size(); ++i) {
    DFP_CHECK(map[i - 1].end_frac < map[i].end_frac);
  }
  placements_[base] = std::move(map);
}

void VMem::ClearExtentPlacement(VAddr base) { placements_.erase(base); }

const PartitionMap* VMem::ExtentPlacement(VAddr base) const {
  auto it = placements_.find(base);
  return it == placements_.end() ? nullptr : &it->second;
}

const MemRegion* VMem::FindRegion(VAddr addr) const {
  for (const MemRegion& region : regions_) {
    if (addr >= region.base && addr < region.base + region.size) {
      return &region;
    }
  }
  return nullptr;
}

}  // namespace dfp
