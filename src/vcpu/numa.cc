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
  // Cut every span into runs of one placement, filling the gaps between spans with unplaced
  // pieces. The boundaries are the exact offsets where the per-address rules below change value:
  //   range partition:  node = offset * nodes / size        (share k starts at ceil(k*size/nodes))
  //   custom partition: slice = first whose end_frac > offset * kPlacementDenom / size
  //                     (slice j starts at ceil(end_frac[j-1] * size / kPlacementDenom))
  //   interleaved:      node = (offset / kInterleaveBytes) % nodes
  //   cross-node:       machine = the span's machine node, no socket node
  lo_ = spans_.empty() ? 0 : spans_.front().base;
  pieces_.clear();
  VAddr cursor = lo_;
  for (const Span& span : spans_) {
    AddPiece(cursor, span.base, NumaPlace{});
    const VAddr end = span.base + span.size;
    if (span.machine != kLocalMachineNode) {
      AddPiece(span.base, end, NumaPlace{span.machine, kNoNumaNode});
    } else if (span.interleaved) {
      for (uint64_t stripe = 0; stripe * kInterleaveBytes < span.size; ++stripe) {
        const VAddr begin = span.base + stripe * kInterleaveBytes;
        AddPiece(begin, std::min(end, begin + kInterleaveBytes),
                 NumaPlace{kLocalMachineNode, static_cast<uint8_t>(stripe % nodes_)});
      }
    } else if (span.custom >= 0) {
      // First byte of the slice that starts at fraction `frac`.
      const auto at = [&](uint64_t frac) {
        return span.base + (frac * span.size + kPlacementDenom - 1) / kPlacementDenom;
      };
      uint64_t start_frac = 0;
      for (const PartitionSlice& slice : customs_[span.custom]) {
        AddPiece(at(start_frac), at(slice.end_frac),
                 NumaPlace{kLocalMachineNode, static_cast<uint8_t>(slice.node % nodes_)});
        start_frac = slice.end_frac;
      }
    } else {
      // Equal contiguous shares, so element i of an N-element array lands on the same node as
      // morsel rows [i, ...) of an N-row scan. `at(k)` is the first byte of node k's share.
      const auto at = [&](uint64_t k) { return span.base + (k * span.size + nodes_ - 1) / nodes_; };
      for (uint64_t k = 0; k < nodes_; ++k) {
        AddPiece(at(k), at(k + 1), NumaPlace{kLocalMachineNode, static_cast<uint8_t>(k)});
      }
    }
    cursor = end;
  }
  // Past the last span: unplaced up to the end of its chunk, then the scan's sentinel.
  pieces_.push_back(Piece{cursor, NumaPlace{}});
  pieces_.push_back(Piece{~0ull, NumaPlace{}});

  static_assert(kInterleaveBytes == 1ull << kChunkShift);
  const uint64_t chunks = (cursor - lo_ + kInterleaveBytes - 1) >> kChunkShift;
  chunks_.resize(chunks);
  uint32_t piece = 0;
  for (uint64_t c = 0; c < chunks; ++c) {
    const VAddr chunk_base = lo_ + (c << kChunkShift);
    while (pieces_[piece + 1].begin <= chunk_base) {
      ++piece;
    }
    const bool split = pieces_[piece + 1].begin < chunk_base + kInterleaveBytes;
    chunks_[c] = Chunk{pieces_[piece].place, split, piece};
  }
  sealed_ = true;
}

void NumaMap::AddPiece(VAddr begin, VAddr end, NumaPlace place) {
  if (begin >= end || (!pieces_.empty() && pieces_.back().place == place)) {
    return;
  }
  pieces_.push_back(Piece{begin, place});
}

}  // namespace dfp
