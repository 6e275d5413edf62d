#include "src/critpath/classify.h"

#include "src/vcpu/cache.h"
#include "src/vcpu/cost_model.h"

namespace dfp {
namespace {

constexpr uint64_t kMemBoundPct = 15;     // Reclaimable-stall share that leaves compute-bound.
constexpr uint64_t kRemoteSharePct = 50;  // Remote share of the stall estimate for remote-DRAM.
constexpr uint64_t kStealPct = 50;        // Stolen-cycle share of the pipeline for steal-starved.

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

const char* BottleneckName(Bottleneck label) {
  switch (label) {
    case Bottleneck::kComputeBound:
      return "compute-bound";
    case Bottleneck::kCacheBound:
      return "cache-bound";
    case Bottleneck::kRemoteDramBound:
      return "remote-dram-bound";
    case Bottleneck::kStealStarved:
      return "steal-starved";
    case Bottleneck::kInsufficientData:
      return "insufficient-data";
  }
  return "?";
}

PipelineVerdict ClassifyPipeline(const PipelineCriticality& p) {
  PipelineVerdict verdict;
  verdict.pipeline = p.pipeline;
  verdict.cycles = p.cycles;
  verdict.stolen_cycles = p.stolen_cycles;
  // Price the reclaimable stalls with the hierarchy's latencies. Counters are hierarchical (an
  // L2 miss is also an L1 miss), so the level-hit counts are the differences; saturating
  // subtraction keeps hand-built or damaged inputs from wrapping. Local-DRAM latency is the
  // streaming roofline and is left in the compute baseline (header comment).
  const uint64_t l2_hits = SatSub(p.l1_misses, p.l2_misses);
  const uint64_t l3_hits = SatSub(p.l2_misses, p.l3_misses);
  verdict.remote_stall_cycles = p.remote_dram * kRemoteDramPenaltyCycles;
  verdict.mem_stall_cycles = l2_hits * kL2Cache.latency + l3_hits * kL3Cache.latency +
                             verdict.remote_stall_cycles;
  if (p.tasks == 0 || p.cycles == 0) {
    verdict.label = Bottleneck::kInsufficientData;
    return verdict;
  }
  verdict.mem_stall_pct = 100 * verdict.mem_stall_cycles / p.cycles;
  verdict.remote_share_pct = verdict.mem_stall_cycles == 0
                                 ? 0
                                 : 100 * verdict.remote_stall_cycles / verdict.mem_stall_cycles;
  verdict.stolen_pct = 100 * p.stolen_cycles / p.cycles;
  if (verdict.stolen_pct >= kStealPct) {
    verdict.label = Bottleneck::kStealStarved;
  } else if (verdict.mem_stall_pct >= kMemBoundPct) {
    verdict.label = verdict.remote_share_pct >= kRemoteSharePct
                        ? Bottleneck::kRemoteDramBound
                        : Bottleneck::kCacheBound;
  } else {
    verdict.label = Bottleneck::kComputeBound;
  }
  return verdict;
}

std::vector<PipelineVerdict> ClassifyPipelines(const TaskDag& dag) {
  std::vector<PipelineVerdict> verdicts;
  verdicts.reserve(dag.pipelines.size());
  for (const PipelineCriticality& p : dag.pipelines) {
    verdicts.push_back(ClassifyPipeline(p));
  }
  return verdicts;
}

}  // namespace dfp
