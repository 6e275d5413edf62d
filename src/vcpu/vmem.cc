#include "src/vcpu/vmem.h"

#include <algorithm>
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
  dirty_.reset(static_cast<uint8_t*>(
      std::calloc((capacity + kDirtyPageBytes - 1) / kDirtyPageBytes, 1)));
  if (bytes_ == nullptr || dirty_ == nullptr) {
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
  if (offset > region.size || bytes > region.size - offset) {
    throw Error(StrFormat("region '%s' is full: %llu bytes requested, %llu of %llu bytes used",
                          region.name.c_str(), static_cast<unsigned long long>(bytes),
                          static_cast<unsigned long long>(region.used),
                          static_cast<unsigned long long>(region.size)));
  }
  region.used = offset + bytes;
  return region.base + offset;
}

void VMem::ResetRegion(uint32_t region_id) {
  DFP_CHECK(region_id < regions_.size());
  MemRegion& region = regions_[region_id];
  const VAddr begin = region.base;
  const VAddr end = region.base + region.used;
  for (uint64_t page = begin / kDirtyPageBytes; page * kDirtyPageBytes < end; ++page) {
    if (dirty_[page] == 0) {
      continue;
    }
    const VAddr page_begin = page * kDirtyPageBytes;
    const VAddr lo = std::max(begin, page_begin);
    const VAddr hi = std::min(end, page_begin + kDirtyPageBytes);
    std::memset(bytes_.get() + lo, 0, hi - lo);
    if (lo == page_begin && hi == page_begin + kDirtyPageBytes) {
      dirty_[page] = 0;
    }
  }
  region.used = 0;
}

void VMem::WriteBytes(VAddr addr, const void* src, uint64_t len) {
  DFP_CHECK(addr <= capacity_ && len <= capacity_ - addr);
  if (len == 0) {
    return;
  }
  std::memcpy(bytes_.get() + addr, src, len);
  std::memset(dirty_.get() + addr / kDirtyPageBytes, 1,
              (addr + len - 1) / kDirtyPageBytes - addr / kDirtyPageBytes + 1);
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
