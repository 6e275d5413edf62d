// Per-query task DAGs and critical-path analysis over the morsel-driven executor's schedule.
//
// ParallelRun emits a TaskBoundary for every work unit it executes (host step, morsel,
// sequential pipeline run, sort) with start/end timestamps, worker id, exec-step index, and
// per-task PMU counter deltas. Those records determine the run's task DAG exactly: within one
// exec step a worker's tasks form a serial chain (the worker is a resource — each task waits
// for the previous one on the same core), and a barrier separates consecutive exec steps
// (every task of step N+1 waits on every task of step N, mirroring ParallelRun::Barrier).
// BuildTaskDag reconstructs that DAG and runs the classic critical-path method over the
// *realized* schedule: the latest finish of a task is the latest time it could have ended
// without delaying the final barrier, its slack is latest finish minus actual finish, and the
// critical path is the zero-slack chain walked backward from the last-finishing task. From the
// path we derive each pipeline's criticality share — the fraction of the critical path spent
// inside that pipeline's tasks — which is what the sampling governor and tier controller
// consume: it answers "which pipeline actually gates this query's latency", where raw cycle
// totals only answer "which pipeline burns the most cycles in aggregate".
//
// Everything here is integer arithmetic over recorded timestamps, so analysis of the same run
// (or of a recorded sample stream, or of a trace replay) is bit-reproducible.
#ifndef DFP_SRC_CRITPATH_DAG_H_
#define DFP_SRC_CRITPATH_DAG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/pmu/sample.h"

namespace dfp {

// Sentinel node index ("no predecessor/successor").
inline constexpr uint32_t kNoTaskNode = 0xFFFFFFFF;

// One task of the DAG: the executor's boundary record plus the CPM results computed over it.
struct TaskNode {
  TaskBoundary task;
  uint32_t chain_pred = kNoTaskNode;  // Same-worker predecessor within the same exec step.
  uint32_t chain_succ = kNoTaskNode;  // Same-worker successor within the same exec step.
  uint64_t latest_finish = 0;  // Latest end_tsc that would not have delayed the final barrier.
  uint64_t slack = 0;          // latest_finish - end_tsc; 0 on the critical path.
  bool critical = false;       // Lies on the critical path.

  uint64_t duration() const { return task.duration(); }
};

// Criticality and counter aggregates of one pipeline's tasks (morsels + sequential runs).
struct PipelineCriticality {
  uint32_t pipeline = 0;
  uint64_t tasks = 0;
  uint64_t critical_tasks = 0;
  uint64_t cycles = 0;           // Summed task durations.
  uint64_t critical_cycles = 0;  // Summed durations of this pipeline's critical-path tasks.
  uint64_t share_pct = 0;        // 100 * critical_cycles / dag.critical_work_cycles.
  uint64_t stolen_tasks = 0;
  uint64_t stolen_cycles = 0;
  // PMU counter sums over the pipeline's tasks — the classifier's inputs.
  uint64_t instructions = 0;
  uint64_t loads = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_misses = 0;
  uint64_t remote_dram = 0;
};

struct TaskDag {
  // Canonical node order: (step, start_tsc, worker, morsel_begin) ascending — independent of
  // the order boundaries were collected in, so two analyses of the same run agree node for
  // node.
  std::vector<TaskNode> nodes;
  // Critical path as node indices, source to sink (empty for an empty DAG).
  std::vector<uint32_t> critical_path;
  uint64_t wall_cycles = 0;           // max end_tsc over all tasks.
  uint64_t start_cycles = 0;          // min start_tsc over all tasks.
  uint64_t critical_work_cycles = 0;  // Summed durations along the critical path.
  // Wall time not covered by critical-path work (scheduler gaps before/along the path);
  // wall = start + critical work + idle by construction of the backward walk.
  uint64_t critical_idle_cycles = 0;
  // Ascending by pipeline id; covers pipeline tasks only (host steps and sorts contribute to
  // the path but belong to no pipeline, so shares need not sum to 100).
  std::vector<PipelineCriticality> pipelines;
};

// Builds the DAG and runs the critical-path method. Tolerates any input the executor can
// produce: an empty vector yields an empty DAG, a single-worker run degenerates to one chain
// (every task critical), endgame-split morsels are ordinary nodes.
TaskDag BuildTaskDag(std::vector<TaskBoundary> tasks);

// Human-readable slack table: the `top` lowest-slack tasks (criticality order; deterministic
// tie-break by canonical node index) plus a summary line.
std::string RenderSlackTable(const TaskDag& dag, size_t top = 16);

}  // namespace dfp

#endif  // DFP_SRC_CRITPATH_DAG_H_
