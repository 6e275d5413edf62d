// The coordinator's tagged Merge operator: exact recombination of shard partials, costed on
// the simulated machine.
//
// Two halves, deliberately fused in one class so the profile can never drift from the result:
//
//  - Semantics. Partial rows from every shard are combined group-by-group, in
//    first-appearance order across the shards taken in shard order, by the Volcano oracle's
//    own aggregate functions (Accumulate and FinalizeAgg, src/interp/interpreter.h); the
//    lifted Map/Sort/Limit stages of the MergeRecipe then run host-side through the oracle's
//    ApplyRowOperator. For integer and decimal aggregates the merged result is bit-identical
//    to the unsharded engine's. (Double SUM/AVG re-associate addition across shards — exact
//    only when the workload's double groups are single-shard, which the gated workload's are
//    not; its aggregates are all int64/decimal.)
//
//  - Cost. Remote shards' partial cells are staged into per-shard staging rings carved from
//    the coordinator (shard 0) database and registered as cross-node spans in a NumaMap: each
//    staged cell is a HostLoad that misses to DRAM and pays the cross-node fabric penalty,
//    ticking the CROSS_NODE PMU event and emitting `X`-token samples. Merge
//    compute is HostWork on a dedicated "shard.merge" kernel segment. The resulting samples
//    are folded into the fleet profile under the reserved Merge operator id, so the fan-out
//    overhead shows up in operator-level profiles next to the ordinary plan operators.
#ifndef DFP_SRC_SHARD_MERGE_H_
#define DFP_SRC_SHARD_MERGE_H_

#include <cstdint>
#include <vector>

#include "src/engine/result.h"
#include "src/pmu/pmu.h"
#include "src/shard/decompose.h"
#include "src/shard/partition.h"
#include "src/vcpu/cpu.h"
#include "src/vcpu/numa.h"

namespace dfp {

// Reserved operator id of the coordinator's Merge operator in fleet profiles. High enough to
// never collide with FinalizePlan's pre-order ids, distinct from kNoOperator (0xFFFFFFFF).
inline constexpr OperatorId kMergeOperatorId = 0xFFFFFFF0u;
inline constexpr const char* kMergeOperatorLabel = "Merge";

// Bytes of each per-remote-shard staging ring (wraps when a result exceeds it).
inline constexpr uint64_t kMergeStageBytes = 64ull * 1024;

// One fan-out merge, accounted.
struct MergeOutcome {
  Result result;
  uint64_t merge_cycles = 0;      // Coordinator TSC consumed by this merge.
  uint64_t staged_bytes = 0;      // Bytes pulled across the shard fabric.
  uint64_t merged_cells = 0;      // Cells touched by combine/finalize/stage compute.
};

class ShardMerger {
 public:
  // Builds the coordinator's staging topology on `catalog` shard 0: one staging ring per
  // remote shard (carved from shard 0's extra arena — budget (shards-1) * kMergeStageBytes
  // there), registered as that shard's memory in a cross-node NumaMap.
  ShardMerger(ShardCatalog& catalog, SamplingConfig sampling);

  // Combines per-shard partial results (indexed by shard) into the final result per `recipe`.
  MergeOutcome Merge(const MergeRecipe& recipe, const std::vector<Result>& partials);

  // Coordinator-side accounting: samples accumulated since the last TakeSamples() (all
  // attributable to the Merge operator), the PMU event counters, and the NUMA traffic stats
  // (cross_node_* count the fabric hops).
  std::vector<Sample> TakeSamples() { return pmu_.TakeSamples(); }
  const PmuCounters& counters() const { return pmu_.counters(); }
  const NumaStats& numa_stats() const { return cpu_.numa_stats(); }
  uint64_t tsc() const { return cpu_.tsc(); }

 private:
  // Stages one remote cell: writes it into the owning shard's ring and loads it back through
  // the cross-node span (the fabric hop). Returns the payload unchanged.
  int64_t StageCell(uint32_t shard, int64_t payload);

  ShardCatalog& catalog_;
  Pmu pmu_;
  Cpu cpu_;
  NumaMap numa_;
  uint32_t segment_ = 0;                 // "shard.merge" kernel segment.
  std::vector<VAddr> stage_base_;        // Ring base per shard (index 0 unused).
  std::vector<uint64_t> stage_offset_;   // Ring cursor per shard.
};

}  // namespace dfp

#endif  // DFP_SRC_SHARD_MERGE_H_
