// Reports and fleet aggregation for the critical-path subsystem.
//
// CriticalityTracker accumulates per-fingerprint criticality across executions. It is the one
// record a service keeps of its runs' task DAGs, each folded in at completion: the sampling
// governor weights per-pipeline periods by its last shares, the tier controller promotes by
// its critical-path work (not raw cycles), and the service profile's `crit` lines carry its
// rollup. RenderCriticalPath is the fleet-level text report; the per-query helpers serve the
// demo and the benchmarks.
#ifndef DFP_SRC_CRITPATH_REPORT_H_
#define DFP_SRC_CRITPATH_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/critpath/classify.h"
#include "src/critpath/dag.h"

namespace dfp {

// Accumulated criticality of one plan fingerprint.
struct PlanCriticality {
  uint64_t fingerprint = 0;
  std::string name;
  uint64_t executions = 0;
  uint64_t wall_cycles = 0;           // Cumulative DAG wall cycles.
  uint64_t critical_work_cycles = 0;  // Cumulative critical-path work — promotion evidence.
  // Last execution's analysis, indexed by pipeline id.
  uint32_t top_pipeline = kNoPipeline;     // Pipeline with the largest criticality share.
  uint64_t top_share_pct = 0;
  std::vector<uint64_t> pipeline_share_pct;
  std::vector<Bottleneck> pipeline_labels;
  // Cumulative pipeline-label observations (one count per pipeline per execution).
  uint64_t label_counts[kBottleneckLabels] = {};

  // The label of the top-criticality pipeline from the last execution (insufficient-data when
  // the plan has no pipelines).
  Bottleneck dominant_label() const;
};

class CriticalityTracker {
 public:
  // Folds one completed execution's DAG and verdicts into the fingerprint's state.
  void Observe(uint64_t fingerprint, const std::string& name, const TaskDag& dag,
               const std::vector<PipelineVerdict>& verdicts);

  const std::map<uint64_t, PlanCriticality>& plans() const { return plans_; }
  const PlanCriticality* Find(uint64_t fingerprint) const;
  // Cumulative critical-path work of `fingerprint` (0 when unseen) — what the tier controller
  // consumes as promotion evidence.
  uint64_t CriticalWorkCycles(uint64_t fingerprint) const;

 private:
  std::map<uint64_t, PlanCriticality> plans_;
};

// Fleet-level critical-path report: one block per fingerprint with its critical-path share of
// wall time, the top pipeline, and the per-pipeline labels.
std::string RenderCriticalPath(const CriticalityTracker& tracker);

// Per-query report over one DAG: summary, critical path, per-pipeline criticality and labels.
// `pipeline_names` (indexed by pipeline id) decorates the rows when provided.
std::string RenderQueryCriticalPath(const TaskDag& dag,
                                    const std::vector<PipelineVerdict>& verdicts,
                                    const std::vector<std::string>& pipeline_names = {});

// Deterministic JSON object with the DAG summary and per-pipeline verdicts (critpath_demo).
void WriteCritPathJson(const TaskDag& dag, const std::vector<PipelineVerdict>& verdicts,
                       std::ostream& out);

}  // namespace dfp

#endif  // DFP_SRC_CRITPATH_REPORT_H_
