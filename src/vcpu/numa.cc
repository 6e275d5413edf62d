#include "src/vcpu/numa.h"

#include <algorithm>

#include "src/util/check.h"

namespace dfp {
namespace {

// Interleave granularity of shared scratch regions (per-node stripe size).
constexpr uint64_t kInterleaveBytes = 64ull * 1024;

}  // namespace

void NumaMap::AddPartitioned(VAddr base, uint64_t size) {
  DFP_CHECK(!sealed_);
  if (size == 0) {
    return;
  }
  spans_.push_back(Span{base, size, false});
}

void NumaMap::AddPartitionedCustom(VAddr base, uint64_t size, PartitionMap map) {
  DFP_CHECK(!sealed_);
  if (size == 0) {
    return;
  }
  DFP_CHECK(!map.empty() && map.back().end_frac == kPlacementDenom);
  Span span{base, size, false, static_cast<int32_t>(customs_.size())};
  customs_.push_back(std::move(map));
  spans_.push_back(span);
}

void NumaMap::AddInterleaved(VAddr base, uint64_t size) {
  DFP_CHECK(!sealed_);
  if (size == 0) {
    return;
  }
  spans_.push_back(Span{base, size, true});
}

void NumaMap::AddPartitionedExtents(const VMem& mem) {
  for (const MemExtent& extent : mem.partitioned_extents()) {
    const PartitionMap* placement = mem.ExtentPlacement(extent.base);
    if (placement != nullptr) {
      AddPartitionedCustom(extent.base, extent.size, *placement);
    } else {
      AddPartitioned(extent.base, extent.size);
    }
  }
}

void NumaMap::AddCrossNode(VAddr base, uint64_t size, uint8_t machine_node) {
  DFP_CHECK(!sealed_);
  DFP_CHECK(machine_node != kLocalMachineNode);
  if (size == 0) {
    return;
  }
  Span span{base, size, false, -1, machine_node};
  spans_.push_back(span);
}

void NumaMap::Seal() {
  std::sort(spans_.begin(), spans_.end(),
            [](const Span& a, const Span& b) { return a.base < b.base; });
  for (size_t i = 1; i < spans_.size(); ++i) {
    DFP_CHECK(spans_[i - 1].base + spans_[i - 1].size <= spans_[i].base);
  }
  sealed_ = true;
}

uint8_t NumaMap::NodeOf(VAddr addr) const {
  DFP_CHECK(sealed_);
  // Last span whose base is <= addr (spans are sorted and disjoint).
  auto it = std::upper_bound(spans_.begin(), spans_.end(), addr,
                             [](VAddr a, const Span& span) { return a < span.base; });
  if (it == spans_.begin()) {
    return kNoNumaNode;
  }
  const Span& span = *(it - 1);
  const uint64_t offset = addr - span.base;
  if (offset >= span.size) {
    return kNoNumaNode;
  }
  if (span.machine != kLocalMachineNode) {
    // Another machine node's memory: socket-level placement does not apply; the cross-node
    // path (MachineNodeOf) owns the attribution.
    return kNoNumaNode;
  }
  if (span.interleaved) {
    return static_cast<uint8_t>((offset / kInterleaveBytes) % nodes_);
  }
  if (span.custom >= 0) {
    // Custom range partition: first slice whose end fraction lies past this offset.
    const PartitionMap& map = customs_[span.custom];
    const uint64_t frac = offset * kPlacementDenom / span.size;
    auto slice = std::upper_bound(
        map.begin(), map.end(), frac,
        [](uint64_t f, const PartitionSlice& s) { return f < s.end_frac; });
    if (slice == map.end()) {
      slice = map.end() - 1;
    }
    return static_cast<uint8_t>(slice->node % nodes_);
  }
  // Range partition: equal contiguous shares, so element i of an N-element array lands on the
  // same node as morsel rows [i, ...) of an N-row scan.
  return static_cast<uint8_t>(offset * nodes_ / span.size);
}

uint8_t NumaMap::MachineNodeOf(VAddr addr) const {
  DFP_CHECK(sealed_);
  auto it = std::upper_bound(spans_.begin(), spans_.end(), addr,
                             [](VAddr a, const Span& span) { return a < span.base; });
  if (it == spans_.begin()) {
    return kLocalMachineNode;
  }
  const Span& span = *(it - 1);
  if (addr - span.base >= span.size) {
    return kLocalMachineNode;
  }
  return span.machine;
}

}  // namespace dfp
