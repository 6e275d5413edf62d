#include "src/critpath/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace dfp {

Bottleneck PlanCriticality::dominant_label() const {
  if (top_pipeline == kNoPipeline || top_pipeline >= pipeline_labels.size()) {
    return Bottleneck::kInsufficientData;
  }
  return pipeline_labels[top_pipeline];
}

void CriticalityTracker::Observe(uint64_t fingerprint, const std::string& name,
                                 const TaskDag& dag,
                                 const std::vector<PipelineVerdict>& verdicts) {
  PlanCriticality& plan = plans_[fingerprint];
  if (plan.executions == 0) {
    plan.fingerprint = fingerprint;
    plan.name = name;
  }
  ++plan.executions;
  plan.wall_cycles += dag.wall_cycles;
  plan.critical_work_cycles += dag.critical_work_cycles;
  plan.top_pipeline = kNoPipeline;
  plan.top_share_pct = 0;
  plan.pipeline_share_pct.clear();
  plan.pipeline_labels.clear();
  for (const PipelineCriticality& p : dag.pipelines) {
    if (p.pipeline >= plan.pipeline_share_pct.size()) {
      plan.pipeline_share_pct.resize(p.pipeline + 1, 0);
      plan.pipeline_labels.resize(p.pipeline + 1, Bottleneck::kInsufficientData);
    }
    plan.pipeline_share_pct[p.pipeline] = p.share_pct;
    // Strictly-greater keeps ties on the lowest pipeline id — deterministic.
    if (plan.top_pipeline == kNoPipeline || p.share_pct > plan.top_share_pct) {
      plan.top_pipeline = p.pipeline;
      plan.top_share_pct = p.share_pct;
    }
  }
  for (const PipelineVerdict& v : verdicts) {
    if (v.pipeline < plan.pipeline_labels.size()) {
      plan.pipeline_labels[v.pipeline] = v.label;
    }
    ++plan.label_counts[static_cast<int>(v.label)];
  }
}

const PlanCriticality* CriticalityTracker::Find(uint64_t fingerprint) const {
  auto it = plans_.find(fingerprint);
  return it == plans_.end() ? nullptr : &it->second;
}

uint64_t CriticalityTracker::CriticalWorkCycles(uint64_t fingerprint) const {
  const PlanCriticality* plan = Find(fingerprint);
  return plan == nullptr ? 0 : plan->critical_work_cycles;
}

std::string RenderCriticalPath(const CriticalityTracker& tracker) {
  std::ostringstream out;
  out << "=== Critical path (per fingerprint) ===\n";
  char line[256];
  for (const auto& [fingerprint, plan] : tracker.plans()) {
    const uint64_t critical_pct =
        plan.wall_cycles == 0 ? 0 : 100 * plan.critical_work_cycles / plan.wall_cycles;
    std::snprintf(line, sizeof(line),
                  "%016llx  %-24s exec %4llu  critical %12llu cycles (%3llu%% of wall)\n",
                  static_cast<unsigned long long>(fingerprint), plan.name.c_str(),
                  static_cast<unsigned long long>(plan.executions),
                  static_cast<unsigned long long>(plan.critical_work_cycles),
                  static_cast<unsigned long long>(critical_pct));
    out << line;
    // Criticality order: share descending, pipeline id ascending on ties. The id tie-break
    // matters — equal-share pipelines (common when shares round to the same percent) must
    // render in one fixed order or double-run diffs of the report flap.
    std::vector<uint32_t> order(plan.pipeline_share_pct.size());
    for (uint32_t p = 0; p < order.size(); ++p) {
      order[p] = p;
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      if (plan.pipeline_share_pct[a] != plan.pipeline_share_pct[b]) {
        return plan.pipeline_share_pct[a] > plan.pipeline_share_pct[b];
      }
      return a < b;
    });
    for (uint32_t p : order) {
      std::snprintf(line, sizeof(line), "  pipeline %2u  share %3llu%%  %s%s\n", p,
                    static_cast<unsigned long long>(plan.pipeline_share_pct[p]),
                    BottleneckName(plan.pipeline_labels[p]),
                    p == plan.top_pipeline ? "  <- critical" : "");
      out << line;
    }
  }
  return out.str();
}

std::string RenderQueryCriticalPath(const TaskDag& dag,
                                    const std::vector<PipelineVerdict>& verdicts,
                                    const std::vector<std::string>& pipeline_names) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== Critical path: %llu of %llu wall cycles (%llu%%) over %zu of %zu tasks "
                "===\n",
                static_cast<unsigned long long>(dag.critical_work_cycles),
                static_cast<unsigned long long>(dag.wall_cycles),
                static_cast<unsigned long long>(
                    dag.wall_cycles == 0 ? 0 : 100 * dag.critical_work_cycles / dag.wall_cycles),
                dag.critical_path.size(), dag.nodes.size());
  out << line;
  for (const PipelineCriticality& p : dag.pipelines) {
    const PipelineVerdict* verdict = nullptr;
    for (const PipelineVerdict& v : verdicts) {
      if (v.pipeline == p.pipeline) {
        verdict = &v;
        break;
      }
    }
    const char* name = p.pipeline < pipeline_names.size() ? pipeline_names[p.pipeline].c_str()
                                                          : "";
    std::snprintf(
        line, sizeof(line),
        "pipeline %2u %-20s share %3llu%%  tasks %4llu (crit %4llu, stolen %4llu)  %s\n",
        p.pipeline, name, static_cast<unsigned long long>(p.share_pct),
        static_cast<unsigned long long>(p.tasks),
        static_cast<unsigned long long>(p.critical_tasks),
        static_cast<unsigned long long>(p.stolen_tasks),
        verdict == nullptr ? "?" : BottleneckName(verdict->label));
    out << line;
    if (verdict != nullptr && verdict->label != Bottleneck::kInsufficientData) {
      std::snprintf(line, sizeof(line),
                    "             mem stall %3llu%% (remote share %3llu%%)  stolen %3llu%%\n",
                    static_cast<unsigned long long>(verdict->mem_stall_pct),
                    static_cast<unsigned long long>(verdict->remote_share_pct),
                    static_cast<unsigned long long>(verdict->stolen_pct));
      out << line;
    }
  }
  return out.str();
}

void WriteCritPathJson(const TaskDag& dag, const std::vector<PipelineVerdict>& verdicts,
                       std::ostream& out) {
  out << "{\n";
  out << "  \"tasks\": " << dag.nodes.size() << ",\n";
  out << "  \"wall_cycles\": " << dag.wall_cycles << ",\n";
  out << "  \"critical_work_cycles\": " << dag.critical_work_cycles << ",\n";
  out << "  \"critical_idle_cycles\": " << dag.critical_idle_cycles << ",\n";
  out << "  \"critical_path_tasks\": " << dag.critical_path.size() << ",\n";
  out << "  \"pipelines\": [";
  for (size_t i = 0; i < dag.pipelines.size(); ++i) {
    const PipelineCriticality& p = dag.pipelines[i];
    const PipelineVerdict* verdict = i < verdicts.size() ? &verdicts[i] : nullptr;
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"pipeline\": " << p.pipeline << ", \"share_pct\": " << p.share_pct
        << ", \"tasks\": " << p.tasks << ", \"critical_tasks\": " << p.critical_tasks
        << ", \"stolen_tasks\": " << p.stolen_tasks << ", \"label\": \""
        << (verdict == nullptr ? "?" : BottleneckName(verdict->label)) << "\"}";
  }
  out << "\n  ]\n";
  out << "}\n";
}

}  // namespace dfp
