#include "src/service/placement_repair.h"

#include <algorithm>
#include <vector>

namespace dfp {

PartitionMap ComputeConsumerPlacement(const TaskDag& dag, uint32_t pipeline, uint32_t nodes,
                                      bool pessimize) {
  // The pipeline's morsel row ranges with the node of the worker that consumed each.
  struct Range {
    uint64_t begin = 0;
    uint64_t end = 0;
    uint8_t node = 0;
  };
  std::vector<Range> ranges;
  uint64_t rows = 0;
  for (const TaskNode& node : dag.nodes) {
    const TaskBoundary& t = node.task;
    if (t.kind != TaskKind::kMorsel || t.pipeline != pipeline) {
      continue;
    }
    uint8_t owner = static_cast<uint8_t>(t.worker_id % nodes);
    if (pessimize) {
      owner = static_cast<uint8_t>((owner + 1) % nodes);
    }
    ranges.push_back(Range{t.morsel_begin, t.morsel_end, owner});
    rows = std::max(rows, t.morsel_end);
  }
  if (ranges.empty() || rows == 0) {
    return {};
  }
  // Morsel ranges partition [0, rows) disjointly (endgame splits included), so sorting by
  // begin yields a gap-free cover in row order.
  std::sort(ranges.begin(), ranges.end(),
            [](const Range& a, const Range& b) { return a.begin < b.begin; });
  PartitionMap map;
  for (const Range& r : ranges) {
    const uint64_t end_frac =
        r.end >= rows ? kPlacementDenom : r.end * kPlacementDenom / rows;
    if (!map.empty() && map.back().node == r.node) {
      map.back().end_frac = end_frac;  // Compress consecutive same-node ranges.
    } else if (!map.empty() && map.back().end_frac >= end_frac) {
      continue;  // Sub-resolution range (end rounds to the same fraction): fold away.
    } else {
      map.push_back(PartitionSlice{end_frac, r.node});
    }
  }
  map.back().end_frac = kPlacementDenom;
  return map;
}

std::string RepairPayload::Detail() const {
  return "pipeline " + std::to_string(pipeline) + " table " + table + " " +
         std::to_string(placement.size()) + " slice(s)";
}

}  // namespace dfp
