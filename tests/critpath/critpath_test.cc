// Critical-path subsystem: hand-computed slack/critical-path over synthetic task DAGs,
// classifier guards on degenerate inputs, bit-level determinism of the serialized analysis,
// sample-stream round trips that rebuild the identical DAG, and the roofline acceptance
// bar — on the skewed q6 workload the classifier must label the scan pipeline
// remote-DRAM-bound under locality-blind central dispatch and compute-bound once NUMA-aware
// stealing keeps the traffic local.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/critpath/classify.h"
#include "src/critpath/dag.h"
#include "src/critpath/report.h"
#include "src/critpath/slack.h"
#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/profiling/serialize.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "tests/testing/critpath_text.h"

namespace dfp {
namespace {

// Database with date-correlated orders: q6's qualifying rows cluster into one contiguous band
// of lineitem, so locality-blind scheduling leaves most accesses on the wrong NUMA node.
Database* SkewedDb() {
  static Database* db = [] {
    auto* instance = new Database();
    TpchOptions options;
    options.scale = 0.01;
    options.correlated_order_dates = true;
    GenerateTpch(*instance, options);
    return instance;
  }();
  return db;
}

CodegenOptions ParallelOptions() {
  CodegenOptions options;
  options.parallel = true;
  return options;
}

TaskBoundary MakeTask(uint32_t step, uint32_t worker, uint64_t start, uint64_t end,
                      uint32_t pipeline = kNoPipeline) {
  TaskBoundary task;
  task.step = step;
  task.worker_id = worker;
  task.start_tsc = start;
  task.end_tsc = end;
  task.kind = pipeline == kNoPipeline ? TaskKind::kHostStep : TaskKind::kMorsel;
  task.pipeline = pipeline;
  return task;
}

TEST(TaskDag, EmptyInputYieldsEmptyDag) {
  TaskDag dag = BuildTaskDag({});
  EXPECT_TRUE(dag.nodes.empty());
  EXPECT_TRUE(dag.critical_path.empty());
  EXPECT_TRUE(dag.pipelines.empty());
  EXPECT_EQ(dag.wall_cycles, 0u);
  EXPECT_EQ(dag.critical_work_cycles, 0u);
  // Degenerate DAGs must render and serialize without dividing by zero.
  EXPECT_FALSE(SerializeDag(dag).empty());
  EXPECT_FALSE(RenderSlackTable(dag).empty());
  EXPECT_TRUE(ClassifyPipelines(dag).empty());
}

TEST(TaskDag, HandComputedSlackAndCriticalPath) {
  // Step 0: worker 0 runs [0,100), worker 1 runs [0,60). Barrier. Step 1: worker 0 runs
  // [100,150), worker 1 runs [100,180). The critical path is the step-0 task that released the
  // barrier last (A, end 100) followed by the longest step-1 task (D, end 180).
  std::vector<TaskBoundary> tasks;
  tasks.push_back(MakeTask(0, 0, 0, 100, 0));    // A
  tasks.push_back(MakeTask(0, 1, 0, 60, 0));     // B
  tasks.push_back(MakeTask(1, 0, 100, 150, 1));  // C
  tasks.push_back(MakeTask(1, 1, 100, 180, 1));  // D
  TaskDag dag = BuildTaskDag(tasks);
  ASSERT_EQ(dag.nodes.size(), 4u);
  EXPECT_EQ(dag.start_cycles, 0u);
  EXPECT_EQ(dag.wall_cycles, 180u);

  // Canonical order: (step, start, worker) = A, B, C, D.
  EXPECT_EQ(dag.nodes[0].slack, 0u);   // A gates the barrier.
  EXPECT_EQ(dag.nodes[1].slack, 40u);  // B could have ended at 100.
  EXPECT_EQ(dag.nodes[2].slack, 30u);  // C could have ended at 180.
  EXPECT_EQ(dag.nodes[3].slack, 0u);   // D is the sink.
  ASSERT_EQ(dag.critical_path.size(), 2u);
  EXPECT_EQ(dag.critical_path[0], 0u);
  EXPECT_EQ(dag.critical_path[1], 3u);
  EXPECT_TRUE(dag.nodes[0].critical);
  EXPECT_FALSE(dag.nodes[1].critical);
  EXPECT_FALSE(dag.nodes[2].critical);
  EXPECT_TRUE(dag.nodes[3].critical);
  EXPECT_EQ(dag.critical_work_cycles, 180u);  // 100 + 80.
  EXPECT_EQ(dag.critical_idle_cycles, 0u);    // Back-to-back across the barrier.

  // Pipeline 0 contributed 100 of the 180 critical cycles, pipeline 1 the other 80.
  ASSERT_EQ(dag.pipelines.size(), 2u);
  EXPECT_EQ(dag.pipelines[0].pipeline, 0u);
  EXPECT_EQ(dag.pipelines[0].critical_cycles, 100u);
  EXPECT_EQ(dag.pipelines[0].share_pct, 100u * 100 / 180);
  EXPECT_EQ(dag.pipelines[1].pipeline, 1u);
  EXPECT_EQ(dag.pipelines[1].critical_cycles, 80u);
  EXPECT_EQ(dag.pipelines[1].share_pct, 100u * 80 / 180);
}

TEST(TaskDag, SingleWorkerChainIsAllCritical) {
  // One worker, three steps: the whole run is one serial chain; every task is critical and
  // carries zero slack (the degenerate DAG the classifier guards must handle label-stably).
  std::vector<TaskBoundary> tasks;
  tasks.push_back(MakeTask(0, 0, 0, 50, 0));
  tasks.push_back(MakeTask(0, 0, 50, 90, 0));
  tasks.push_back(MakeTask(1, 0, 90, 200, 1));
  tasks.push_back(MakeTask(2, 0, 200, 260));
  TaskDag dag = BuildTaskDag(tasks);
  ASSERT_EQ(dag.nodes.size(), 4u);
  EXPECT_EQ(dag.critical_path.size(), 4u);
  for (const TaskNode& node : dag.nodes) {
    EXPECT_TRUE(node.critical);
    EXPECT_EQ(node.slack, 0u);
  }
  EXPECT_EQ(dag.critical_work_cycles, 260u);
  EXPECT_EQ(dag.critical_idle_cycles, 0u);
}

TEST(TaskDag, EndgameSplitZeroDurationNodesAreCanonical) {
  // Endgame splitting can produce same-start (even zero-duration) morsels of one pipeline on
  // one worker; the canonical order disambiguates by morsel range, so any collection order
  // builds the identical DAG.
  std::vector<TaskBoundary> tasks;
  for (uint64_t begin : {192u, 128u, 64u, 0u}) {
    TaskBoundary task = MakeTask(0, 0, 500, 500, 0);
    task.morsel_begin = begin;
    task.morsel_end = begin + 64;
    tasks.push_back(task);
  }
  TaskBoundary real = MakeTask(0, 1, 0, 700, 0);
  real.morsel_begin = 256;
  real.morsel_end = 1024;
  tasks.push_back(real);

  TaskDag forward = BuildTaskDag(tasks);
  std::reverse(tasks.begin(), tasks.end());
  TaskDag reversed = BuildTaskDag(tasks);
  EXPECT_EQ(SerializeDag(forward), SerializeDag(reversed));
  ASSERT_EQ(forward.nodes.size(), 5u);
  // Zero-duration splits sort by morsel_begin and never divide by zero anywhere downstream.
  EXPECT_EQ(forward.nodes[1].task.morsel_begin, 0u);
  EXPECT_EQ(forward.nodes[2].task.morsel_begin, 64u);
  const std::vector<PipelineVerdict> verdicts = ClassifyPipelines(forward);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_NE(verdicts[0].label, Bottleneck::kInsufficientData);
}

TEST(Classifier, DegenerateInputsGetInsufficientData) {
  PipelineCriticality empty;
  empty.pipeline = 7;
  PipelineVerdict verdict = ClassifyPipeline(empty);
  EXPECT_EQ(verdict.label, Bottleneck::kInsufficientData);
  EXPECT_EQ(verdict.mem_stall_pct, 0u);
  EXPECT_EQ(verdict.remote_share_pct, 0u);
  EXPECT_EQ(verdict.stolen_pct, 0u);

  // Tasks but zero cycles (all endgame splits): still insufficient, still no division.
  PipelineCriticality zero_cycles;
  zero_cycles.tasks = 3;
  EXPECT_EQ(ClassifyPipeline(zero_cycles).label, Bottleneck::kInsufficientData);
}

TEST(Classifier, RulesFireInDocumentedOrder) {
  // Steal-starved wins even when the counters also look memory-bound.
  PipelineCriticality starved;
  starved.tasks = 4;
  starved.cycles = 1000;
  starved.stolen_cycles = 600;
  starved.l1_misses = 100;
  starved.l2_misses = 100;
  starved.l3_misses = 100;
  starved.remote_dram = 90;
  EXPECT_EQ(ClassifyPipeline(starved).label, Bottleneck::kStealStarved);

  // Stall-bound with the remote-NUMA penalty dominating the estimate: remote-DRAM-bound.
  PipelineCriticality remote;
  remote.tasks = 4;
  remote.cycles = 100000;
  remote.l1_misses = 200;
  remote.l2_misses = 200;
  remote.l3_misses = 200;
  remote.remote_dram = 190;
  EXPECT_EQ(ClassifyPipeline(remote).label, Bottleneck::kRemoteDramBound);

  // Stalls from cache-hierarchy hit latency instead (misses stop at L2/L3, traffic stays
  // local): cache-bound.
  PipelineCriticality cache;
  cache.tasks = 4;
  cache.cycles = 100000;
  cache.l1_misses = 2000;
  cache.l2_misses = 500;
  EXPECT_EQ(ClassifyPipeline(cache).label, Bottleneck::kCacheBound);

  // The same hierarchy traffic but local DRAM only (a streaming scan at its roofline): the
  // compulsory-DRAM floor is not a reclaimable stall, so the verdict is compute-bound.
  PipelineCriticality streaming;
  streaming.tasks = 4;
  streaming.cycles = 100000;
  streaming.l1_misses = 300;
  streaming.l2_misses = 300;
  streaming.l3_misses = 300;
  EXPECT_EQ(ClassifyPipeline(streaming).label, Bottleneck::kComputeBound);

  // Barely any misses: compute-bound.
  PipelineCriticality compute;
  compute.tasks = 4;
  compute.cycles = 100000;
  compute.instructions = 90000;
  compute.l1_misses = 10;
  EXPECT_EQ(ClassifyPipeline(compute).label, Bottleneck::kComputeBound);
}

TEST(CritPath, RealRunAnalysisIsByteDeterministic) {
  Database& db = *SkewedDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), nullptr, "q6_critdet", ParallelOptions());
  ParallelConfig config;
  config.workers = 4;
  config.scheduler = SchedulerPolicy::kWorkStealing;
  auto analyze = [&] {
    engine.ExecuteParallel(query, config);
    TaskDag dag = BuildTaskDag(engine.last_task_boundaries());
    return SerializeAnalysis(dag, ClassifyPipelines(dag)) + RenderSlackTable(dag) +
           RenderQueryCriticalPath(dag, ClassifyPipelines(dag));
  };
  const std::string first = analyze();
  const std::string second = analyze();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // Byte-identical DAG, slack table, verdicts.

  // DAG identity under permutation: BuildTaskDag skips its re-sort when the boundaries
  // already arrive in canonical (step, start, worker) order, so the fast path must be
  // behavior-neutral — a shuffled copy of the same boundaries rebuilds the identical DAG.
  std::vector<TaskBoundary> boundaries = engine.last_task_boundaries();
  ASSERT_FALSE(boundaries.empty());
  const TaskDag canonical = BuildTaskDag(boundaries);
  std::mt19937 rng(20260808u);
  std::shuffle(boundaries.begin(), boundaries.end(), rng);
  const TaskDag shuffled = BuildTaskDag(boundaries);
  EXPECT_EQ(SerializeAnalysis(canonical, ClassifyPipelines(canonical)),
            SerializeAnalysis(shuffled, ClassifyPipelines(shuffled)));
}

TEST(CritPath, RenderOrdersEqualSharePipelinesByIdAscending) {
  // One serial chain: pipeline 3 owns half the critical path; pipelines 0/1/2 land on the
  // same rounded share. The report orders share descending with ascending pipeline id on
  // ties — equal-share pipelines are common once shares round to whole percents, and a
  // flapping order would show up as spurious diffs in double-run report comparisons.
  std::vector<TaskBoundary> tasks;
  tasks.push_back(MakeTask(0, 0, 0, 300, 3));
  tasks.push_back(MakeTask(1, 0, 300, 400, 0));
  tasks.push_back(MakeTask(2, 0, 400, 500, 1));
  tasks.push_back(MakeTask(3, 0, 500, 600, 2));
  const TaskDag dag = BuildTaskDag(tasks);
  CriticalityTracker tracker;
  tracker.Observe(1, "tie", dag, ClassifyPipelines(dag));
  const std::string report = RenderCriticalPath(tracker);
  const size_t p3 = report.find("pipeline  3");
  const size_t p0 = report.find("pipeline  0");
  const size_t p1 = report.find("pipeline  1");
  const size_t p2 = report.find("pipeline  2");
  ASSERT_NE(p3, std::string::npos);
  ASSERT_NE(p0, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  EXPECT_LT(p3, p0);  // Highest share renders first.
  EXPECT_LT(p0, p1);  // Equal shares ascend by pipeline id.
  EXPECT_LT(p1, p2);
}

TEST(SlackStore, FoldsDagsIntoBucketEwmasAndExpectedCriticalPath) {
  // The hand-computed DAG from HandComputedSlackAndCriticalPath: step 0 tasks A [0,100) and
  // B [0,60) with slacks 0 and 40, rows encoded through morsel ranges.
  std::vector<TaskBoundary> tasks;
  tasks.push_back(MakeTask(0, 0, 0, 100, 0));
  tasks.push_back(MakeTask(0, 1, 0, 60, 0));
  tasks.push_back(MakeTask(1, 0, 100, 180, 1));
  tasks[0].morsel_begin = 0;
  tasks[0].morsel_end = 500;
  tasks[1].morsel_begin = 500;
  tasks[1].morsel_end = 1000;
  const TaskDag dag = BuildTaskDag(tasks);

  SlackStore store;
  EXPECT_EQ(store.ExpectedCriticalPathCycles(7), 0u);  // Unseen: admission must admit.
  store.Observe(7, "hand", dag);
  const PlanSlack* plan = store.Find(7);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->executions, 1u);
  // First fold seeds the EWMA with the raw observation.
  EXPECT_EQ(plan->critical_path_cycles, dag.critical_work_cycles);
  EXPECT_EQ(store.ExpectedCriticalPathCycles(7), dag.critical_work_cycles);
  const StepSlack* step = plan->FindStep(0, 0);
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->rows, 1000u);
  // A's begin lands in bucket 0 (per-run minimum slack 0), B's begin in bucket 8 (slack 40);
  // buckets no task began in stay unobserved.
  EXPECT_EQ(step->SlackAt(0), 0u);
  EXPECT_EQ(step->SlackAt(500), 40u);
  EXPECT_EQ(step->SlackAt(999), UINT64_MAX);

  // Second fold: EWMA (3*old + observed) / 4 over the same DAG is a fixed point.
  store.Observe(7, "hand", dag);
  EXPECT_EQ(store.Find(7)->executions, 2u);
  EXPECT_EQ(store.ExpectedCriticalPathCycles(7), dag.critical_work_cycles);
}

TEST(SlackStore, StalePlansAgeOutAfterMaxAgeGenerations) {
  std::vector<TaskBoundary> tasks;
  tasks.push_back(MakeTask(0, 0, 0, 100, 0));
  const TaskDag dag = BuildTaskDag(tasks);
  SlackStore store;
  store.Observe(1, "stale", dag);
  for (uint64_t generation = 0; generation < kSlackMaxAge; ++generation) {
    store.Observe(2, "hot", dag);
  }
  EXPECT_NE(store.Find(1), nullptr);  // Exactly kSlackMaxAge generations stale: still alive.
  store.Observe(2, "hot", dag);
  EXPECT_EQ(store.Find(1), nullptr);  // One more: aged out.
  EXPECT_NE(store.Find(2), nullptr);
  EXPECT_EQ(store.ExpectedCriticalPathCycles(1), 0u);
}

TEST(CritPath, SampleStreamRebuildsTheIdenticalDag) {
  // The task-boundary block in a sample stream is the DAG: reading the stream back and rebuilding
  // must reproduce the live analysis byte for byte — profiles stay analyzable offline.
  Database& db = *SkewedDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  ProfilingConfig pconfig;
  pconfig.period = 311;
  ProfilingSession session(pconfig);
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), &session, "q6_v5", ParallelOptions());
  ParallelConfig config;
  config.workers = 4;
  config.scheduler = SchedulerPolicy::kWorkStealing;
  engine.ExecuteParallel(query, config);
  const std::vector<TaskBoundary> boundaries = engine.last_task_boundaries();
  ASSERT_FALSE(boundaries.empty());

  std::ostringstream out;
  WriteSamples(session.samples(), out, boundaries);

  std::istringstream in(out.str());
  std::vector<TaskBoundary> reread;
  std::vector<Sample> samples = ReadSamples(in, &reread);
  EXPECT_EQ(samples.size(), session.samples().size());
  ASSERT_EQ(reread.size(), boundaries.size());

  const TaskDag live = BuildTaskDag(boundaries);
  const TaskDag from_stream = BuildTaskDag(reread);
  EXPECT_EQ(SerializeAnalysis(live, ClassifyPipelines(live)),
            SerializeAnalysis(from_stream, ClassifyPipelines(from_stream)));
}

// The acceptance bar of the classifier (ISSUE: roofline verdicts must track scheduling): the
// same skewed q6 scan is remote-DRAM-bound under locality-blind central dispatch and
// compute-bound once NUMA-aware stealing keeps the band's traffic on its home nodes.
TEST(CritPath, SkewedQ6VerdictTracksScheduler) {
  Database& db = *SkewedDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), nullptr, "q6_roofline", ParallelOptions());

  auto top_verdict = [&](SchedulerPolicy policy) {
    ParallelConfig config;
    config.workers = 4;
    config.scheduler = policy;
    engine.ExecuteParallel(query, config);
    TaskDag dag = BuildTaskDag(engine.last_task_boundaries());
    const std::vector<PipelineVerdict> verdicts = ClassifyPipelines(dag);
    // The scan is the pipeline the scheduler fans out: the one with the most morsel tasks.
    // (Single-task pipelines run identically under both policies, so they carry no signal.)
    uint32_t scan = dag.pipelines.empty() ? 0 : dag.pipelines[0].pipeline;
    uint64_t most_tasks = 0;
    for (const PipelineCriticality& p : dag.pipelines) {
      if (p.tasks > most_tasks) {
        most_tasks = p.tasks;
        scan = p.pipeline;
      }
    }
    for (const PipelineVerdict& v : verdicts) {
      if (v.pipeline == scan) {
        return v;
      }
    }
    return PipelineVerdict();
  };

  const PipelineVerdict central = top_verdict(SchedulerPolicy::kCentral);
  EXPECT_EQ(central.label, Bottleneck::kRemoteDramBound)
      << "central: cycles " << central.cycles << " mem_stall " << central.mem_stall_cycles
      << " (" << central.mem_stall_pct << "%) remote " << central.remote_stall_cycles << " ("
      << central.remote_share_pct << "%) stolen " << central.stolen_pct << "%";

  const PipelineVerdict stealing = top_verdict(SchedulerPolicy::kWorkStealing);
  EXPECT_EQ(stealing.label, Bottleneck::kComputeBound)
      << "stealing: cycles " << stealing.cycles << " mem_stall " << stealing.mem_stall_cycles
      << " (" << stealing.mem_stall_pct << "%) remote " << stealing.remote_stall_cycles << " ("
      << stealing.remote_share_pct << "%) stolen " << stealing.stolen_pct << "%";
}

}  // namespace
}  // namespace dfp
