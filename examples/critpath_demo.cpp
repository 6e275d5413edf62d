// Critical-path analysis walkthrough: why "which pipeline burns the most cycles" and "which
// pipeline gates this query's latency" are different questions, and how the bottleneck
// classifier turns per-task PMU counters into a remedy.
//
// The demo executes the skewed q6 workload (date-correlated orders: the qualifying lineitem
// rows cluster into one contiguous band, so locality-blind scheduling leaves most DRAM traffic
// on the wrong NUMA node) twice — once under central table-order dispatch and once under
// NUMA-aware work stealing — and for each run reconstructs the task DAG from the executor's
// boundary records, computes per-task slack and the critical path, and classifies every
// pipeline. The scan pipeline must flip from remote-DRAM-bound (central) to compute-bound
// (stealing): the fix the classifier named is the fix the scheduler applied.
//
// The analysis is a pure function of the recorded schedule, so the exported JSON is
// byte-identical across process runs — the CI determinism job runs this demo twice and
// diffs the files; the demo itself exits nonzero if the verdicts do not flip.
#include <cstdio>
#include <fstream>

#include "src/critpath/classify.h"
#include "src/critpath/dag.h"
#include "src/critpath/report.h"
#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

int main() {
  using namespace dfp;

  Database db;
  TpchOptions options;
  options.scale = 0.01;
  options.correlated_order_dates = true;
  GenerateTpch(db, options);

  QueryEngine engine(&db);
  CodegenOptions codegen;
  codegen.parallel = true;
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, FindQuery("q6")), nullptr, "q6_critpath", codegen);

  // The scan is the pipeline the scheduler fans out into morsels — the only one whose
  // schedule (and therefore verdict) can react to the scheduling policy.
  auto scan_label = [](const TaskDag& dag, const std::vector<PipelineVerdict>& verdicts) {
    uint32_t scan = 0;
    uint64_t most_tasks = 0;
    for (const PipelineCriticality& p : dag.pipelines) {
      if (p.tasks > most_tasks) {
        most_tasks = p.tasks;
        scan = p.pipeline;
      }
    }
    for (const PipelineVerdict& v : verdicts) {
      if (v.pipeline == scan) {
        return v.label;
      }
    }
    return Bottleneck::kInsufficientData;
  };

  std::ofstream json("critpath_analysis.json");
  json << "{\n\"central\": ";
  Bottleneck central_label = Bottleneck::kInsufficientData;
  Bottleneck stealing_label = Bottleneck::kInsufficientData;
  for (SchedulerPolicy policy : {SchedulerPolicy::kCentral, SchedulerPolicy::kWorkStealing}) {
    ParallelConfig config;
    config.workers = 4;
    config.scheduler = policy;
    engine.ExecuteParallel(query, config);

    const TaskDag dag = BuildTaskDag(engine.last_task_boundaries());
    const std::vector<PipelineVerdict> verdicts = ClassifyPipelines(dag);
    std::printf("=== %s ===\n%s\n%s\n",
                policy == SchedulerPolicy::kCentral ? "central table-order dispatch"
                                                    : "NUMA-aware work stealing",
                RenderQueryCriticalPath(dag, verdicts).c_str(),
                RenderSlackTable(dag).c_str());
    if (policy == SchedulerPolicy::kCentral) {
      central_label = scan_label(dag, verdicts);
      WriteCritPathJson(dag, verdicts, json);
      json << ",\n\"stealing\": ";
    } else {
      stealing_label = scan_label(dag, verdicts);
      WriteCritPathJson(dag, verdicts, json);
      json << "}\n";
    }
  }
  json.close();
  std::printf("wrote critpath_analysis.json\n");

  const bool flipped = central_label == Bottleneck::kRemoteDramBound &&
                       stealing_label == Bottleneck::kComputeBound;
  std::printf("scan pipeline verdict: %s (central) -> %s (stealing) %s\n",
              BottleneckName(central_label), BottleneckName(stealing_label),
              flipped ? "[ok]" : "[FAIL: classifier did not track the scheduler]");
  return flipped ? 0 : 1;
}
