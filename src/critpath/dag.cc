#include "src/critpath/dag.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace dfp {
namespace {

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kHostStep:
      return "host";
    case TaskKind::kMorsel:
      return "morsel";
    case TaskKind::kSequentialPipeline:
      return "pipeline";
    case TaskKind::kSort:
      return "sort";
  }
  return "?";
}

// Canonical node order: barrier groups first, then time, then worker, then the morsel range
// (which disambiguates zero-duration same-start tasks deterministically).
bool CanonicalLess(const TaskBoundary& a, const TaskBoundary& b) {
  if (a.step != b.step) return a.step < b.step;
  if (a.start_tsc != b.start_tsc) return a.start_tsc < b.start_tsc;
  if (a.worker_id != b.worker_id) return a.worker_id < b.worker_id;
  return a.morsel_begin < b.morsel_begin;
}

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

TaskDag BuildTaskDag(std::vector<TaskBoundary> tasks) {
  TaskDag dag;
  if (tasks.empty()) {
    return dag;
  }
  // Single-worker runs (and replayed streams) already arrive in canonical order — the
  // executor appends boundaries in execution order, which for one worker is exactly
  // (step, start_tsc). Skip the re-sort then: is_sorted is one linear pass and the resulting
  // DAG is identical either way (asserted by the determinism test).
  if (!std::is_sorted(tasks.begin(), tasks.end(), CanonicalLess)) {
    std::sort(tasks.begin(), tasks.end(), CanonicalLess);
  }
  dag.nodes.reserve(tasks.size());
  for (TaskBoundary& task : tasks) {
    TaskNode node;
    node.task = task;
    dag.nodes.push_back(node);
  }

  // Contiguous [begin, end) index ranges of equal-step nodes, in step order.
  struct StepRange {
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  std::vector<StepRange> steps;
  steps.reserve(dag.nodes.empty() ? 0 : dag.nodes.back().task.step + 1);
  dag.critical_path.reserve(dag.nodes.size());
  for (uint32_t i = 0; i < dag.nodes.size(); ++i) {
    if (steps.empty() || dag.nodes[steps.back().begin].task.step != dag.nodes[i].task.step) {
      steps.push_back(StepRange{i, i + 1});
    } else {
      steps.back().end = i + 1;
    }
  }

  // Same-worker chains within each step (canonical order is time order per worker).
  {
    std::map<uint32_t, uint32_t> last_on_worker;
    for (const StepRange& range : steps) {
      last_on_worker.clear();
      for (uint32_t i = range.begin; i < range.end; ++i) {
        auto [it, inserted] = last_on_worker.try_emplace(dag.nodes[i].task.worker_id, i);
        if (!inserted) {
          dag.nodes[i].chain_pred = it->second;
          dag.nodes[it->second].chain_succ = i;
          it->second = i;
        }
      }
    }
  }

  dag.start_cycles = UINT64_MAX;
  for (const TaskNode& node : dag.nodes) {
    dag.start_cycles = std::min(dag.start_cycles, node.task.start_tsc);
    dag.wall_cycles = std::max(dag.wall_cycles, node.task.end_tsc);
  }

  // Backward pass of the critical-path method. A task's latest finish is bounded by its
  // same-worker chain successor's latest start and by the barrier into the next step — which
  // every task of the step shares, so the barrier constraint folds into one value (the minimum
  // latest start over the next step) instead of quadratic edges.
  uint64_t next_barrier_ls = dag.wall_cycles;
  for (size_t s = steps.size(); s-- > 0;) {
    const StepRange& range = steps[s];
    uint64_t min_ls = UINT64_MAX;
    for (uint32_t i = range.end; i-- > range.begin;) {
      TaskNode& node = dag.nodes[i];
      uint64_t lf = next_barrier_ls;
      if (node.chain_succ != kNoTaskNode) {
        const TaskNode& succ = dag.nodes[node.chain_succ];
        lf = std::min(lf, SatSub(succ.latest_finish, succ.duration()));
      }
      node.latest_finish = lf;
      node.slack = SatSub(lf, node.task.end_tsc);
      min_ls = std::min(min_ls, SatSub(lf, node.duration()));
    }
    next_barrier_ls = min_ls;
  }

  // Critical path: walk backward from the last-finishing task, following the same-worker chain
  // when one exists and otherwise crossing the barrier to the latest-finishing task of the
  // previous step. Ties break to the lowest canonical index, keeping the walk deterministic.
  uint32_t sink = 0;
  for (uint32_t i = 1; i < dag.nodes.size(); ++i) {
    if (dag.nodes[i].task.end_tsc > dag.nodes[sink].task.end_tsc) {
      sink = i;
    }
  }
  size_t step_of = steps.size();
  while (steps[--step_of].begin > sink || sink >= steps[step_of].end) {
  }
  uint32_t cur = sink;
  while (true) {
    dag.nodes[cur].critical = true;
    dag.critical_path.push_back(cur);
    dag.critical_work_cycles += dag.nodes[cur].duration();
    if (dag.nodes[cur].chain_pred != kNoTaskNode) {
      cur = dag.nodes[cur].chain_pred;
      continue;
    }
    if (step_of == 0) {
      break;
    }
    const StepRange& prev = steps[--step_of];
    uint32_t best = prev.begin;
    for (uint32_t i = prev.begin + 1; i < prev.end; ++i) {
      if (dag.nodes[i].task.end_tsc > dag.nodes[best].task.end_tsc) {
        best = i;
      }
    }
    cur = best;
  }
  std::reverse(dag.critical_path.begin(), dag.critical_path.end());
  dag.critical_idle_cycles =
      SatSub(dag.wall_cycles, dag.start_cycles + dag.critical_work_cycles);

  // Per-pipeline criticality and counter aggregates.
  std::map<uint32_t, PipelineCriticality> pipelines;
  for (const TaskNode& node : dag.nodes) {
    if (node.task.pipeline == kNoPipeline) {
      continue;
    }
    PipelineCriticality& p = pipelines[node.task.pipeline];
    p.pipeline = node.task.pipeline;
    ++p.tasks;
    p.cycles += node.duration();
    if (node.critical) {
      ++p.critical_tasks;
      p.critical_cycles += node.duration();
    }
    if (node.task.stolen) {
      ++p.stolen_tasks;
      p.stolen_cycles += node.duration();
    }
    p.instructions += node.task.instructions;
    p.loads += node.task.loads;
    p.l1_misses += node.task.l1_misses;
    p.l2_misses += node.task.l2_misses;
    p.l3_misses += node.task.l3_misses;
    p.remote_dram += node.task.remote_dram;
  }
  dag.pipelines.reserve(pipelines.size());
  for (auto& [id, p] : pipelines) {
    (void)id;
    p.share_pct =
        dag.critical_work_cycles == 0 ? 0 : 100 * p.critical_cycles / dag.critical_work_cycles;
    dag.pipelines.push_back(p);
  }
  return dag;
}

std::string RenderSlackTable(const TaskDag& dag, size_t top) {
  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "=== Slack table (%zu tasks, wall %llu, critical path %llu cycles over %zu "
                "tasks) ===\n",
                dag.nodes.size(), static_cast<unsigned long long>(dag.wall_cycles),
                static_cast<unsigned long long>(dag.critical_work_cycles),
                dag.critical_path.size());
  out << line;
  if (dag.nodes.empty()) {
    return out.str();
  }
  out << "node   step  kind      pipeline  worker        start          end     cycles  "
         "slack\n";
  std::vector<uint32_t> order(dag.nodes.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (dag.nodes[a].slack != dag.nodes[b].slack) {
      return dag.nodes[a].slack < dag.nodes[b].slack;
    }
    return a < b;
  });
  const size_t rows = std::min(top, order.size());
  for (size_t r = 0; r < rows; ++r) {
    const TaskNode& node = dag.nodes[order[r]];
    char pipeline[16];
    if (node.task.pipeline == kNoPipeline) {
      std::snprintf(pipeline, sizeof(pipeline), "-");
    } else {
      std::snprintf(pipeline, sizeof(pipeline), "%u", node.task.pipeline);
    }
    std::snprintf(line, sizeof(line),
                  "%5u  %4u  %-8s  %8s  %6u  %11llu  %11llu  %9llu  %5llu%s\n", order[r],
                  node.task.step, TaskKindName(node.task.kind), pipeline, node.task.worker_id,
                  static_cast<unsigned long long>(node.task.start_tsc),
                  static_cast<unsigned long long>(node.task.end_tsc),
                  static_cast<unsigned long long>(node.duration()),
                  static_cast<unsigned long long>(node.slack),
                  node.critical ? "  *critical*" : "");
    out << line;
  }
  if (rows < order.size()) {
    std::snprintf(line, sizeof(line), "... %zu more tasks\n", order.size() - rows);
    out << line;
  }
  return out.str();
}

}  // namespace dfp
