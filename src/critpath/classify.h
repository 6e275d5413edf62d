// Roofline-style bottleneck classification of pipelines, from per-task PMU counter deltas.
//
// For each pipeline of a task DAG the classifier estimates how many of its cycles were
// *reclaimable* memory stalls by pricing the counter deltas with the VCPU cost model's
// latencies: an access that stopped at L2 costs the L2 hit latency, one that stopped at L3 the
// L3 hit latency (kL2Cache/kL3Cache, src/vcpu/cache.h), and a remote-DRAM access the NUMA
// penalty (kRemoteDramPenaltyCycles) — the same constants the simulator charged, so the
// estimate is exact accounting, not a guess. The local-DRAM latency of a miss is deliberately
// NOT counted: for a streaming operator that traffic is compulsory — it IS the memory roofline
// — and a pipeline at that roofline has nothing to reclaim from placement or access pattern.
// Each label names the remedy:
//
//   steal-starved      stolen-task cycles  >= 50% of the pipeline's cycles — the pipeline's
//                      home deques drained and workers lived off steals; fix the partitioning,
//                      not the code.
//   remote-DRAM-bound  reclaimable stall >= 15% of cycles AND the remote-penalty share of it
//                      is >= 50% — the misses go to the wrong socket; fix placement or
//                      scheduling.
//   cache-bound        reclaimable stall >= 15% with cache-hierarchy hit latency
//                      dominating — fix the access pattern.
//   compute-bound      everything else: the cycles are instruction execution plus compulsory
//                      streaming traffic — the pipeline sits on its roofline; optimize the
//                      kernel itself.
//
// A pipeline without tasks or cycles gets the explicit insufficient-data label instead of a
// division by zero or a coin-flip between labels. All rules are integer comparisons over
// counters and fixed thresholds, so verdicts are bit-reproducible and a replayed trace
// classifies identically to the recorded run.
#ifndef DFP_SRC_CRITPATH_CLASSIFY_H_
#define DFP_SRC_CRITPATH_CLASSIFY_H_

#include <cstdint>
#include <vector>

#include "src/critpath/dag.h"

namespace dfp {

enum class Bottleneck : uint8_t {
  kComputeBound = 0,
  kCacheBound = 1,
  kRemoteDramBound = 2,
  kStealStarved = 3,
  kInsufficientData = 4,
};
inline constexpr int kBottleneckLabels = 5;

// Stable lowercase-hyphen names ("compute-bound", ...), used by reports and the service
// profile's `crit` lines.
const char* BottleneckName(Bottleneck label);

struct PipelineVerdict {
  uint32_t pipeline = 0;
  Bottleneck label = Bottleneck::kInsufficientData;
  uint64_t cycles = 0;              // Pipeline task cycles the percentages are relative to.
  uint64_t mem_stall_cycles = 0;    // Priced reclaimable-stall estimate (cache + remote).
  uint64_t remote_stall_cycles = 0; // Remote-DRAM penalty part of the estimate.
  uint64_t stolen_cycles = 0;
  uint64_t mem_stall_pct = 0;       // 100 * mem_stall / cycles.
  uint64_t remote_share_pct = 0;    // 100 * remote_stall / mem_stall.
  uint64_t stolen_pct = 0;          // 100 * stolen / cycles.
};

// Classifies one pipeline's aggregates (rules above, applied in order: insufficient-data,
// steal-starved, remote-DRAM-bound, cache-bound, compute-bound).
PipelineVerdict ClassifyPipeline(const PipelineCriticality& p);

// Classifies every pipeline of the DAG, ascending by pipeline id.
std::vector<PipelineVerdict> ClassifyPipelines(const TaskDag& dag);

}  // namespace dfp

#endif  // DFP_SRC_CRITPATH_CLASSIFY_H_
