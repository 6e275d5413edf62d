// Test oracle for the critical-path subsystem: a deterministic line-oriented serialization of a
// full analysis (nodes with slack, the critical path, per-pipeline criticality, and verdicts).
// Two analyses of the same run serialize byte-identically, which is what the DAG-identity
// tests compare.
#ifndef DFP_TESTS_TESTING_CRITPATH_TEXT_H_
#define DFP_TESTS_TESTING_CRITPATH_TEXT_H_

#include <sstream>
#include <string>
#include <vector>

#include "src/critpath/classify.h"
#include "src/critpath/dag.h"

namespace dfp {

inline std::string SerializeDag(const TaskDag& dag) {
  std::ostringstream out;
  out << "# dfp task dag v1\n";
  out << "summary " << dag.nodes.size() << " " << dag.start_cycles << " " << dag.wall_cycles
      << " " << dag.critical_work_cycles << " " << dag.critical_idle_cycles << " "
      << dag.critical_path.size() << "\n";
  for (size_t i = 0; i < dag.nodes.size(); ++i) {
    const TaskNode& node = dag.nodes[i];
    const TaskBoundary& t = node.task;
    out << "node " << i << " " << t.step << " " << static_cast<uint32_t>(t.kind) << " "
        << t.pipeline << " " << t.worker_id << " " << t.start_tsc << " " << t.end_tsc << " "
        << (t.stolen ? 1 : 0) << " " << node.slack << " " << (node.critical ? 1 : 0) << " "
        << t.morsel_begin << " " << t.morsel_end << " " << t.instructions << " " << t.loads
        << " " << t.l1_misses << " " << t.l2_misses << " " << t.l3_misses << " "
        << t.remote_dram << "\n";
  }
  if (!dag.critical_path.empty()) {
    out << "path";
    for (uint32_t i : dag.critical_path) {
      out << " " << i;
    }
    out << "\n";
  }
  for (const PipelineCriticality& p : dag.pipelines) {
    out << "pipeline " << p.pipeline << " " << p.tasks << " " << p.critical_tasks << " "
        << p.cycles << " " << p.critical_cycles << " " << p.share_pct << " " << p.stolen_tasks
        << " " << p.stolen_cycles << "\n";
  }
  return out.str();
}

// SerializeDag plus one `verdict` line per pipeline.
inline std::string SerializeAnalysis(const TaskDag& dag,
                                     const std::vector<PipelineVerdict>& verdicts) {
  std::ostringstream out;
  out << SerializeDag(dag);
  for (const PipelineVerdict& v : verdicts) {
    out << "verdict " << v.pipeline << " " << BottleneckName(v.label) << " " << v.cycles << " "
        << v.mem_stall_cycles << " " << v.remote_stall_cycles << " " << v.stolen_cycles << " "
        << v.mem_stall_pct << " " << v.remote_share_pct << " " << v.stolen_pct << "\n";
  }
  return out.str();
}

}  // namespace dfp

#endif  // DFP_TESTS_TESTING_CRITPATH_TEXT_H_
