#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/util/random.h"
#include "src/vcpu/numa.h"

namespace dfp {
namespace {

constexpr uint64_t kStripe = 64ull * 1024;  // NumaMap's interleave granularity.

// The two per-access lookups NumaMap::Locate replaced, kept as its oracle: a binary search of the
// sorted spans, then each span kind's per-address rule (NodeOf) or its machine node
// (MachineNodeOf).
class SpanSearchOracle {
 public:
  explicit SpanSearchOracle(uint32_t nodes) : nodes_(nodes) {}

  void AddPartitioned(VAddr base, uint64_t size) { spans_.push_back(Span{base, size}); }
  void AddPartitionedCustom(VAddr base, uint64_t size, PartitionMap map) {
    spans_.push_back(Span{base, size, false, static_cast<int32_t>(customs_.size())});
    customs_.push_back(std::move(map));
  }
  void AddInterleaved(VAddr base, uint64_t size) { spans_.push_back(Span{base, size, true}); }
  void AddCrossNode(VAddr base, uint64_t size, uint8_t machine_node) {
    spans_.push_back(Span{base, size, false, -1, machine_node});
  }
  void Seal() {
    std::sort(spans_.begin(), spans_.end(),
              [](const Span& a, const Span& b) { return a.base < b.base; });
  }

  uint8_t NodeOf(VAddr addr) const {
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
      return kNoNumaNode;
    }
    if (span.interleaved) {
      return static_cast<uint8_t>((offset / kStripe) % nodes_);
    }
    if (span.custom >= 0) {
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
    return static_cast<uint8_t>(offset * nodes_ / span.size);
  }

  uint8_t MachineNodeOf(VAddr addr) const {
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

 private:
  struct Span {
    VAddr base = 0;
    uint64_t size = 0;
    bool interleaved = false;
    int32_t custom = -1;
    uint8_t machine = kLocalMachineNode;
  };

  uint32_t nodes_;
  std::vector<Span> spans_;
  std::vector<PartitionMap> customs_;
};

// Registers one layout in a NumaMap and the oracle alike, and collects the addresses where a
// lookup can change value: every span edge, range-partition threshold, custom slice edge and
// interleave stripe edge, each with its neighbours.
class Layout {
 public:
  explicit Layout(uint32_t nodes) : nodes_(nodes), map_(nodes), oracle_(nodes) {}

  void Partitioned(VAddr base, uint64_t size) {
    map_.AddPartitioned(base, size);
    oracle_.AddPartitioned(base, size);
    AddEdges(base, size);
    for (uint64_t k = 1; k < nodes_; ++k) {
      Probe(base + (k * size + nodes_ - 1) / nodes_);
    }
  }
  void Custom(VAddr base, uint64_t size, const PartitionMap& slices) {
    map_.AddPartitionedCustom(base, size, slices);
    oracle_.AddPartitionedCustom(base, size, slices);
    AddEdges(base, size);
    for (const PartitionSlice& slice : slices) {
      Probe(base + (slice.end_frac * size + kPlacementDenom - 1) / kPlacementDenom);
    }
  }
  void Interleaved(VAddr base, uint64_t size) {
    map_.AddInterleaved(base, size);
    oracle_.AddInterleaved(base, size);
    AddEdges(base, size);
    for (uint64_t offset = kStripe; offset < size; offset += kStripe) {
      Probe(base + offset);
    }
  }
  void CrossNode(VAddr base, uint64_t size, uint8_t machine_node) {
    map_.AddCrossNode(base, size, machine_node);
    oracle_.AddCrossNode(base, size, machine_node);
    AddEdges(base, size);
  }

  // Seals both and compares every probe, plus `random` uniform addresses below `limit`.
  void ExpectSameAsOracle(VAddr limit, int random) {
    map_.Seal();
    oracle_.Seal();
    Random rng(nodes_);
    for (int i = 0; i < random; ++i) {
      probes_.push_back(rng.Next() % limit);
    }
    for (VAddr addr : {VAddr{0}, VAddr{1}, limit, ~VAddr{0} - 1, ~VAddr{0}}) {
      probes_.push_back(addr);
    }
    for (VAddr addr : probes_) {
      const NumaPlace place = map_.Locate(addr);
      ASSERT_EQ(place.machine, oracle_.MachineNodeOf(addr)) << nodes_ << " nodes, addr " << addr;
      ASSERT_EQ(place.node, oracle_.NodeOf(addr)) << nodes_ << " nodes, addr " << addr;
    }
  }

 private:
  void AddEdges(VAddr base, uint64_t size) {
    Probe(base);
    Probe(base + size);
  }
  void Probe(VAddr edge) {
    probes_.insert(probes_.end(), {edge - 1, edge, edge + 1});
  }

  uint32_t nodes_;
  NumaMap map_;
  SpanSearchOracle oracle_;
  std::vector<VAddr> probes_;
};

class NumaLocate : public testing::TestWithParam<uint32_t> {};

TEST_P(NumaLocate, MatchesSpanSearch) {
  Layout layout(GetParam());
  // Column-like partitioned extents: tiny ones (fewer bytes than nodes), odd sizes, several
  // sharing one 64 KiB chunk, back-to-back extents, and large ones spanning many chunks.
  VAddr cursor = 64;
  for (uint64_t size : {1ull, 3ull, 5ull, 63ull, 100ull, 4096ull, 12000ull, 65537ull, 480000ull,
                        240000ull, 1000003ull}) {
    layout.Partitioned(cursor, size);
    cursor += size;  // Back to back, as columns are allocated.
  }
  cursor += 777;  // A gap.
  const PartitionMap skewed = {{1, 3}, {1000, 2}, {30000, 0}, {30001, 5}, {kPlacementDenom, 1}};
  const PartitionMap whole = {{kPlacementDenom, 70}};
  for (uint64_t size : {7ull, 9000ull, 250000ull}) {
    layout.Custom(cursor, size, skewed);
    cursor += size;
  }
  layout.Custom(cursor, 300000, whole);
  cursor += 300000 + kStripe * 3;
  // Interleaved scratch regions: one a multiple of 64 KiB above the first extent (one stripe per
  // lookup chunk), one not, and one shorter than a stripe.
  cursor = 64 + (cursor - 64 + kStripe - 1) / kStripe * kStripe;
  layout.Interleaved(cursor, 70 * kStripe);
  cursor += 70 * kStripe + 4160;
  layout.Interleaved(cursor, 9 * kStripe + 123);
  cursor += 9 * kStripe + 123;
  layout.Interleaved(cursor, 1000);
  cursor += 1000 + 3 * kStripe + 5;
  // Cross-node staging buffers, one next to a partitioned extent.
  layout.CrossNode(cursor, 300000, 0);
  cursor += 300000;
  layout.Partitioned(cursor, 9999);
  cursor += 9999 + 64;
  layout.CrossNode(cursor, 5000, 3);
  cursor += 5000;
  layout.ExpectSameAsOracle(cursor + 2 * kStripe, 200000);
}

TEST_P(NumaLocate, MatchesSpanSearchFromVMemExtents) {
  // The ParallelRun shape: extents registered by the storage layer (one with a placement
  // override) plus an interleaved scratch region far above them, off the 64 KiB chunk grid, so
  // every chunk of it holds a stripe boundary.
  VMem mem(64ull << 20);
  const uint32_t columns = mem.CreateRegion("columns", 8ull << 20);
  const uint32_t scratch = mem.CreateRegion("scratch", 32ull << 20);
  std::vector<VAddr> extents;
  for (uint64_t rows : {25ull, 1500ull, 15000ull, 60175ull}) {
    for (uint64_t width : {4ull, 8ull}) {
      extents.push_back(mem.Alloc(columns, rows * width));
      mem.MarkPartitioned(extents.back(), rows * width);
    }
  }
  mem.SetExtentPlacement(extents[5], {{20000, 1}, {40000, 0}, {kPlacementDenom, 6}});
  NumaMap map(GetParam());
  SpanSearchOracle oracle(GetParam());
  map.AddPartitionedExtents(mem);
  for (const MemExtent& extent : mem.partitioned_extents()) {
    const PartitionMap* placement = mem.ExtentPlacement(extent.base);
    if (placement != nullptr) {
      oracle.AddPartitionedCustom(extent.base, extent.size, *placement);
    } else {
      oracle.AddPartitioned(extent.base, extent.size);
    }
  }
  const MemRegion& region = mem.region(scratch);
  map.AddInterleaved(region.base + 4096, 20ull << 20);
  oracle.AddInterleaved(region.base + 4096, 20ull << 20);
  map.Seal();
  oracle.Seal();
  Random rng(GetParam() + 100);
  for (int i = 0; i < 300000; ++i) {
    // Half the probes in the columns region, where the extents are dense.
    const VAddr addr = rng.Chance(0.5) ? rng.Next() % (1ull << 20) : rng.Next() % (64ull << 20);
    const NumaPlace place = map.Locate(addr);
    ASSERT_EQ(place.machine, oracle.MachineNodeOf(addr)) << addr;
    ASSERT_EQ(place.node, oracle.NodeOf(addr)) << addr;
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, NumaLocate, testing::Values(1u, 2u, 3u, 4u, 7u, 64u));

TEST(NumaLocateEmpty, EverythingIsLocalAndUnplaced) {
  NumaMap map(4);
  map.Seal();
  for (VAddr addr : {0ull, 4096ull, ~0ull}) {
    EXPECT_EQ(map.Locate(addr), NumaPlace{});
  }
}

TEST(NumaLocateDeathTest, LookupBeforeSealDies) {
  NumaMap map(2);
  map.AddPartitioned(4096, 4096);
  EXPECT_DEATH(map.Locate(4096), "DFP_CHECK");
}

}  // namespace
}  // namespace dfp
