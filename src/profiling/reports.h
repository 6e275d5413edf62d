// Report generation: Tailored Profiling's developer-facing views.
//
//  - Cost-annotated query plan (Figures 6a / 9b): per-operator sample shares on the dataflow
//    graph, the domain expert's and optimizer developer's view.
//  - Annotated IR listing (Figure 6b): per-line sample counts with operator/task attribution and
//    per-block subtotals, the operator developer's view.
//  - Operator activity over time (Figures 7 / 11): per-time-bucket operator shares.
//  - Memory access profile (Figure 12): per-operator (time, address) samples.
//  - Attribution statistics (Table 2).
#ifndef DFP_SRC_PROFILING_REPORTS_H_
#define DFP_SRC_PROFILING_REPORTS_H_

#include <map>
#include <string>
#include <vector>

#include "src/engine/exec_plan.h"
#include "src/profiling/session.h"

namespace dfp {

// Restricts a report to a time interval of the query's execution — the paper's drill-down:
// "narrow down on the next lower abstraction level, i.e., limit the results to the time interval
// of the hotspot". Default: the whole run.
struct TimeWindow {
  uint64_t begin_cycles = 0;
  uint64_t end_cycles = ~0ull;

  bool Contains(uint64_t tsc) const { return tsc >= begin_cycles && tsc < end_cycles; }
};

// --- Per-operator aggregation ---

struct OperatorCost {
  OperatorId op = kNoOperator;
  std::string label;
  uint64_t samples = 0;
  double share = 0;  // Of all operator-attributed samples.
};

struct OperatorProfile {
  std::vector<OperatorCost> operators;  // Ordered by operator id.
  uint64_t operator_samples = 0;
  uint64_t kernel_samples = 0;

  const OperatorCost* Find(OperatorId op) const;
};

// Aggregates a resolved session per operator. `query` supplies operator labels.
OperatorProfile BuildOperatorProfile(const ProfilingSession& session, const CompiledQuery& query,
                                     const TimeWindow& window = TimeWindow());

// Renders the plan tree annotated with each operator's cost share (Figure 9b).
std::string RenderAnnotatedPlan(const OperatorProfile& profile, const CompiledQuery& query);

// --- Annotated IR listing (Figure 6b) ---

// Renders pipeline `pipeline`'s optimized VIR with per-line sample percentage and
// task/operator attribution, plus per-block subtotals.
std::string RenderAnnotatedListing(const ProfilingSession& session, const CompiledQuery& query,
                                   uint32_t pipeline = 0);

// --- Operator activity over time (Figures 7 / 11) ---

struct ActivityTimeline {
  std::vector<std::string> series_names;            // One per operator (+ kernel).
  std::vector<std::vector<double>> bucket_samples;  // [series][bucket], sample counts.
  uint64_t bucket_cycles = 0;
  uint64_t total_cycles = 0;
};

ActivityTimeline BuildActivityTimeline(const ProfilingSession& session,
                                       const CompiledQuery& query, size_t buckets);

// Activity timeline with one lane per worker instead of one per operator: each series counts
// that worker's samples per bucket, making idle phases (barrier waits, sequential pipelines)
// visible on parallel runs. Works on any resolved session; single-threaded runs get one lane.
ActivityTimeline BuildWorkerActivityTimeline(const ProfilingSession& session, size_t buckets);

// Renders the timeline as an ASCII intensity chart.
std::string RenderActivityTimeline(const ActivityTimeline& timeline);

// --- Memory access profile (Figure 12) ---

struct MemoryProfileSeries {
  std::string label;            // Operator label.
  OperatorId op = kNoOperator;
  uint64_t min_addr = 0;        // Lowest address touched (series baseline).
  uint64_t max_addr = 0;
  std::vector<std::pair<uint64_t, uint64_t>> points;  // (tsc, addr).
  // NUMA locality of this operator's sampled accesses (0/0 on single-node runs or streams
  // without node info). `stolen_remote` isolates the remote traffic caused by work stealing.
  uint64_t local_accesses = 0;
  uint64_t remote_accesses = 0;
  uint64_t stolen_remote = 0;
};

struct MemoryProfile {
  std::vector<MemoryProfileSeries> series;
  uint64_t total_cycles = 0;
};

// Requires a session sampled on a memory event with capture_address.
MemoryProfile BuildMemoryProfile(const ProfilingSession& session, const CompiledQuery& query,
                                 const TimeWindow& window = TimeWindow());

std::string RenderMemoryProfile(const MemoryProfile& profile);

// Per-operator NUMA locality table: sampled local/remote access counts, remote share, and how
// much of the remote traffic happened inside stolen morsels. The tabular companion to the
// memory-access scatter plots for the locality drill-down.
std::string RenderMemoryLocality(const MemoryProfile& profile);

// Activity timeline with one lane each for local accesses, remote accesses, and remote accesses
// taken inside stolen morsels — makes steal-induced remote spikes visible over time. Counts only
// samples that carry node information (memory-event sessions on a NUMA-modeled run).
ActivityTimeline BuildLocalityTimeline(const ProfilingSession& session, size_t buckets);

// --- Machine-code level (the traditional profiler's view, for comparison) ---

// Renders one pipeline's machine code with per-instruction sample percentages, spill/tagging
// markers, and the IR id each instruction was lowered from. This is the level a conventional
// profiler stops at; the annotated IR listing and plan views are what Tailored Profiling adds.
std::string RenderMachineListing(const ProfilingSession& session, const CompiledQuery& query,
                                 const CodeMap& code_map, uint32_t pipeline = 0);

// --- Attribution statistics (Table 2) ---

std::string RenderAttributionStats(const AttributionStats& stats);

// --- Side-by-side cost diff ---

// One operator row of a before/after comparison between two cost-annotated profiles of the
// same plan (e.g. a regression baseline vs. the current window).
struct CostDiffRow {
  std::string label;
  double before_share = 0;  // Share of attributed samples, [0, 1].
  double after_share = 0;
  bool flagged = false;  // Marked with '!' in the rendered table.
};

// Renders the rows as an aligned side-by-side table with a signed delta column. `before_name`
// and `after_name` caption the two columns.
std::string RenderCostDiff(const std::vector<CostDiffRow>& rows, const std::string& before_name,
                           const std::string& after_name);

// --- EXPLAIN-ANALYZE-style tuple counts ---

// Renders the per-task tuple counters of a query compiled with CodegenOptions::count_tuples,
// next to each task's operator — the statistic the paper contrasts with sampled time ("even
// though the tuple count is a decent approximation, our sampling approach captures the actual
// time spent in each operator").
std::string RenderTaskTupleCounts(const CompiledQuery& query, const TaggingDictionary& dictionary);

}  // namespace dfp

#endif  // DFP_SRC_PROFILING_REPORTS_H_
