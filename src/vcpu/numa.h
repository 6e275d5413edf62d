// NUMA topology model for the simulated machine.
//
// The flat VMem arena is overlaid with a node map: table column arrays (registered as
// partitioned extents by the storage layer) are range-partitioned across the nodes — the
// morsel-driven first-touch placement of Leis et al. — while shared scratch regions (hash
// tables, query state, output buffers) are chunk-interleaved, modeling the per-node stripes a
// real engine allocates round-robin. Every worker VCPU is pinned to one node; an access whose
// address resolves to another node's memory is *remote* and pays an extra DRAM latency when it
// misses all caches (on-chip hits are private to the core and never pay the hop).
//
// The map is a pure function of the database layout and the topology configuration, so runs
// stay deterministic and the same query profiles identically at any worker count.
#ifndef DFP_SRC_VCPU_NUMA_H_
#define DFP_SRC_VCPU_NUMA_H_

#include <cstdint>
#include <vector>

#include "src/pmu/sample.h"
#include "src/util/check.h"
#include "src/vcpu/cost_model.h"
#include "src/vcpu/vmem.h"

namespace dfp {

// `Sample::mem_node`-style sentinel for addresses outside any cross-node span: the memory is
// local to the machine node the accessing core runs on.
inline constexpr uint8_t kLocalMachineNode = 0xFF;

// Per-core NUMA traffic counters (the locality analogue of CacheStats).
struct NumaStats {
  uint64_t local_accesses = 0;   // Accesses to NUMA-managed memory on the core's own node.
  uint64_t remote_accesses = 0;  // Accesses to another node's memory (any cache level).
  uint64_t remote_dram = 0;      // Remote accesses that missed to DRAM and paid the penalty.
  uint64_t cross_node_accesses = 0;  // Accesses to another machine node's memory (any level).
};

// Where one address lives. `machine` is the machine node whose memory serves it, or
// kLocalMachineNode for the accessing core's own machine. `node` is the socket node owning it on
// that machine, or kNoNumaNode for memory outside any partitioned or interleaved span (code,
// strings, other sessions' regions), which is uniformly reachable and never remote, and for
// another machine's memory, where socket-level placement does not apply.
struct NumaPlace {
  uint8_t machine = kLocalMachineNode;
  uint8_t node = kNoNumaNode;

  bool operator==(const NumaPlace&) const = default;
};

// Resolves addresses to node ids for one run's topology of `nodes` sockets. Constructed per
// ParallelRun from the database's partitioned extents plus the run's scratch regions. A remote
// access that misses every cache level pays kRemoteDramPenaltyCycles; one served by another
// machine node's memory pays kCrossNodePenaltyCycles instead (src/vcpu/cost_model.h).
class NumaMap {
 public:
  explicit NumaMap(uint32_t nodes) : nodes_(nodes) {}

  uint32_t nodes() const { return nodes_; }

  // Registers [base, base+size) as range-partitioned: node = offset * nodes / size.
  void AddPartitioned(VAddr base, uint64_t size);
  // Registers [base, base+size) as range-partitioned by a custom fractional map (the
  // placement-repair action's node ownership): the slice covering offset/size owns the byte.
  void AddPartitionedCustom(VAddr base, uint64_t size, PartitionMap map);
  // Registers [base, base+size) as chunk-interleaved: node = (offset / chunk) % nodes.
  void AddInterleaved(VAddr base, uint64_t size);
  // Convenience: registers every partitioned extent the storage layer marked in `mem`,
  // honoring any per-extent placement override (VMem::ExtentPlacement).
  void AddPartitionedExtents(const VMem& mem);

  // Registers [base, base+size) as memory homed on machine node `machine_node` of a multi-node
  // (sharded) topology: staging buffers holding another shard's results. Accesses pay the
  // cross-node fabric penalty on a full miss and tick the CROSS_NODE event instead of the
  // cross-socket path.
  void AddCrossNode(VAddr base, uint64_t size, uint8_t machine_node);

  // Call after registration, before lookups: cuts the spans into pieces of one placement each
  // and indexes them by 64 KiB chunk.
  void Seal();

  // Placement of `addr`. O(1) and division-free: one chunk-table read, plus, in a chunk that
  // holds piece boundaries, a forward scan over the pieces that start before `addr`.
  NumaPlace Locate(VAddr addr) const {
    DFP_CHECK(sealed_);
    const uint64_t index = (addr - lo_) >> kChunkShift;  // Wraps past the table below lo_.
    if (index >= chunks_.size()) {
      return NumaPlace{};
    }
    const Chunk& chunk = chunks_[index];
    if (!chunk.split) {
      return chunk.place;
    }
    uint32_t piece = chunk.first_piece;
    while (pieces_[piece + 1].begin <= addr) {
      ++piece;
    }
    return pieces_[piece].place;
  }

 private:
  struct Span {
    VAddr base = 0;
    uint64_t size = 0;
    bool interleaved = false;
    int32_t custom = -1;  // Index into customs_, or -1 for the default equal-share split.
    uint8_t machine = kLocalMachineNode;  // Owning machine node for cross-node spans.
  };
  // Addresses [begin, next piece's begin) share one placement.
  struct Piece {
    VAddr begin = 0;
    NumaPlace place;
  };
  // One 64 KiB chunk of the table: its placement if one piece covers it, otherwise the piece
  // holding its first byte.
  struct Chunk {
    NumaPlace place;
    bool split = false;
    uint32_t first_piece = 0;
  };

  static constexpr int kChunkShift = 16;  // 64 KiB chunks: one interleave stripe each.

  // Appends [begin, end) with `place`, merging it into the last piece when they match.
  void AddPiece(VAddr begin, VAddr end, NumaPlace place);

  uint32_t nodes_;
  std::vector<Span> spans_;  // Sorted by base after Seal(); spans never overlap.
  std::vector<PartitionMap> customs_;
  bool sealed_ = false;
  // Built by Seal(): pieces_ tile [lo_, end of the last span) in address order, followed by an
  // unplaced piece at that end and a sentinel at ~0. lo_ is the first span's base and chunks_[c]
  // covers [lo_ + c * 64 KiB, lo_ + (c + 1) * 64 KiB). An interleaved span that starts a multiple
  // of 64 KiB above lo_, as the database's regions do, has one stripe per chunk, so its lookups
  // read one entry.
  VAddr lo_ = 0;
  std::vector<Piece> pieces_;
  std::vector<Chunk> chunks_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_NUMA_H_
