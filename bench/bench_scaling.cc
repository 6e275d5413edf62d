// Morsel-driven scaling experiment: the same compiled query executed on worker pools of
// 1/2/4/8 simulated cores. Reports simulated-cycle speedup and per-worker busy/idle shares,
// then drills into the 4-worker run with the multi-level profiles — per-worker activity
// timeline, merged cost-annotated plan, and attribution statistics — to show that every
// Tailored Profiling report works unchanged on the merged multi-worker sample stream.
#include <map>

#include "bench/common.h"
#include "src/critpath/dag.h"
#include "src/critpath/slack.h"
#include "src/profiling/reports.h"

namespace dfp {
namespace {

CompiledQuery CompileParallel(QueryEngine& engine, Database& db, const QuerySpec& spec,
                              ProfilingSession* session, const std::string& name) {
  CodegenOptions options;
  options.parallel = true;
  return engine.Compile(BuildQueryPlan(db, spec), session, name, options);
}

int Main() {
  PrintHeader("Morsel-driven scaling", "Section 3.1 of the morsel-driven execution extension");
  std::unique_ptr<Database> db = MakeTpchDatabase(BenchScale());
  QueryEngine engine(db.get());
  JsonWriter json;
  json.BeginObject();
  json.BeginArray("scaling");

  for (const char* name : {"q1", "q6", "qgj"}) {
    const QuerySpec& spec = FindQuery(name);
    CompiledQuery sequential = engine.Compile(BuildQueryPlan(*db, spec), nullptr, spec.name);
    engine.Execute(sequential);
    const uint64_t base_cycles = engine.last_cycles();
    std::printf("\n--- %s: %llu single-threaded cycles (%.2f ms simulated) ---\n", name,
                static_cast<unsigned long long>(base_cycles), CyclesToMs(base_cycles));
    std::printf("%-8s %14s %9s %s\n", "workers", "cycles", "speedup", "per-worker busy%");

    CompiledQuery parallel = CompileParallel(engine, *db, spec, nullptr, spec.name + "_par");
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      ParallelConfig config;
      config.workers = workers;
      engine.ExecuteParallel(parallel, config);
      const uint64_t cycles = engine.last_cycles();
      std::string busy;
      uint64_t morsels = 0;
      uint64_t steals = 0;
      for (const WorkerMetrics& w : engine.last_worker_metrics()) {
        busy += StrFormat("%s%.0f%%", busy.empty() ? "" : " ",
                          100.0 * static_cast<double>(w.busy_cycles) /
                              static_cast<double>(std::max<uint64_t>(1, cycles)));
        morsels += w.morsels;
        steals += w.steals;
      }
      std::printf("%-8u %14llu %8.2fx %s  (%llu dispatches, %llu steals)\n", workers,
                  static_cast<unsigned long long>(cycles),
                  static_cast<double>(base_cycles) / static_cast<double>(cycles), busy.c_str(),
                  static_cast<unsigned long long>(morsels),
                  static_cast<unsigned long long>(steals));
      json.BeginObject();
      json.Field("query", std::string(name));
      json.Field("workers", static_cast<uint64_t>(workers));
      json.Field("cycles", cycles);
      json.Field("sequential_cycles", base_cycles);
      json.Field("speedup", static_cast<double>(base_cycles) / static_cast<double>(cycles));
      json.Field("dispatches", morsels);
      json.Field("steals", steals);
      json.EndObject();
    }
  }

  json.EndArray();

  // Morsel sizing: the fixed legacy size against the cardinality-derived automatic size.
  // Cheap scans (q6) want chunky morsels to amortize the dispatch cost; the auto sizing
  // derives that from the estimate and the per-row path length instead of a magic constant.
  std::printf("\n--- Morsel sizing at 4 workers: fixed 1024 rows vs auto ---\n");
  std::printf("%-8s %10s %14s %12s %10s\n", "query", "morsel", "cycles", "dispatches",
              "vs fixed");
  json.BeginArray("morsel_sizing");
  for (const char* name : {"q1", "q6", "qgj"}) {
    const QuerySpec& spec = FindQuery(name);
    CompiledQuery parallel = CompileParallel(engine, *db, spec, nullptr,
                                             spec.name + "_sizing");
    uint64_t fixed_cycles = 0;
    for (uint64_t morsel_rows : {uint64_t{1024}, uint64_t{0}}) {
      ParallelConfig config;
      config.workers = 4;
      config.morsel_rows = morsel_rows;
      engine.ExecuteParallel(parallel, config);
      const uint64_t cycles = engine.last_cycles();
      uint64_t morsels = 0;
      for (const WorkerMetrics& w : engine.last_worker_metrics()) {
        morsels += w.morsels;
      }
      const bool fixed = morsel_rows != 0;
      if (fixed) {
        fixed_cycles = cycles;
      }
      std::printf("%-8s %10s %14llu %12llu %9.3fx\n", name,
                  fixed ? "1024" : "auto",
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(morsels),
                  static_cast<double>(fixed_cycles) / static_cast<double>(cycles));
      json.BeginObject();
      json.Field("query", std::string(name));
      json.Field("morsel_rows", fixed ? std::string("1024") : std::string("auto"));
      json.Field("cycles", cycles);
      json.Field("dispatches", morsels);
      json.EndObject();
    }
  }
  json.EndArray();

  // Work stealing vs central dispatch on a skewed morsel distribution. Correlated order dates
  // cluster q6's qualifying rows into one contiguous band of lineitem, so the band's morsels
  // carry the aggregation work while the rest only evaluate (and reject) the filter: the nodes
  // owning the band run long and everyone else goes stealing. Central dispatch balances the
  // clocks perfectly but ignores locality, paying the remote-DRAM penalty on ~ (nodes-1)/nodes
  // of its column traffic; the stealing scheduler keeps morsels node-local and eats remote
  // traffic only for the morsels it actually steals.
  {
    std::unique_ptr<Database> skew_db =
        MakeTpchDatabase(BenchScale(), /*correlated_dates=*/true);
    QueryEngine skew_engine(skew_db.get());
    const QuerySpec& spec = FindQuery("q6");
    CompiledQuery parallel =
        CompileParallel(skew_engine, *skew_db, spec, nullptr, spec.name + "_steal");
    std::printf("\n--- Scheduler policies: q6 on date-skewed lineitem, 4 workers ---\n");
    std::printf("%-10s %14s %12s %8s %12s %12s\n", "policy", "cycles", "dispatches", "steals",
                "local", "remote");
    json.BeginArray("stealing");
    uint64_t central_cycles = 0;
    uint64_t stealing_cycles = 0;
    uint64_t stealing_steals = 0;
    for (SchedulerPolicy policy : {SchedulerPolicy::kCentral, SchedulerPolicy::kWorkStealing}) {
      const bool stealing = policy == SchedulerPolicy::kWorkStealing;
      ParallelConfig config;
      config.workers = 4;
      config.scheduler = policy;
      skew_engine.ExecuteParallel(parallel, config);
      const uint64_t cycles = skew_engine.last_cycles();
      uint64_t dispatches = 0;
      uint64_t steals = 0;
      uint64_t local = 0;
      uint64_t remote = 0;
      // Per-node traffic: workers pinned to the same node sum into one bucket.
      std::map<uint32_t, NumaStats> per_node;
      for (const WorkerMetrics& w : skew_engine.last_worker_metrics()) {
        dispatches += w.morsels;
        steals += w.steals;
        local += w.numa_stats.local_accesses;
        remote += w.numa_stats.remote_accesses;
        NumaStats& node = per_node[w.node];
        node.local_accesses += w.numa_stats.local_accesses;
        node.remote_accesses += w.numa_stats.remote_accesses;
        node.remote_dram += w.numa_stats.remote_dram;
      }
      if (stealing) {
        stealing_cycles = cycles;
        stealing_steals = steals;
      } else {
        central_cycles = cycles;
      }
      std::printf("%-10s %14llu %12llu %8llu %12llu %12llu\n",
                  stealing ? "stealing" : "central",
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(dispatches),
                  static_cast<unsigned long long>(steals),
                  static_cast<unsigned long long>(local),
                  static_cast<unsigned long long>(remote));
      json.BeginObject();
      json.Field("query", std::string("q6_skewed"));
      json.Field("policy", std::string(stealing ? "stealing" : "central"));
      json.Field("workers", static_cast<uint64_t>(4));
      json.Field("cycles", cycles);
      json.Field("dispatches", dispatches);
      json.Field("steals", steals);
      json.Field("local_accesses", local);
      json.Field("remote_accesses", remote);
      json.BeginArray("nodes");
      for (const auto& [node, stats] : per_node) {
        json.BeginObject();
        json.Field("node", static_cast<uint64_t>(node));
        json.Field("local_accesses", stats.local_accesses);
        json.Field("remote_accesses", stats.remote_accesses);
        json.Field("remote_dram", stats.remote_dram);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    std::printf("stealing vs central: %.3fx cycles, %llu steals\n",
                static_cast<double>(stealing_cycles) / static_cast<double>(central_cycles),
                static_cast<unsigned long long>(stealing_steals));
    if (stealing_cycles > central_cycles || stealing_steals == 0) {
      std::fprintf(stderr,
                   "FAIL: stealing must be equal-or-better than central on the skewed scan "
                   "(stealing=%llu central=%llu) with nonzero steals (%llu)\n",
                   static_cast<unsigned long long>(stealing_cycles),
                   static_cast<unsigned long long>(central_cycles),
                   static_cast<unsigned long long>(stealing_steals));
      return 1;
    }

    // Locality drill-down on the stealing run: sample loads with address capture so every
    // sample carries its access's home node, then render the per-operator local/remote table
    // and the locality timeline (steal-induced remote spikes show in the third lane).
    ProfilingConfig pconfig;
    pconfig.event = PmuEvent::kLoads;
    pconfig.period = 500;
    pconfig.capture_address = true;
    ProfilingSession session(pconfig);
    CompiledQuery profiled =
        CompileParallel(skew_engine, *skew_db, spec, &session, spec.name + "_locality");
    ParallelConfig config;
    config.workers = 4;
    skew_engine.ExecuteParallel(profiled, config);
    session.Resolve(skew_db->code_map());
    MemoryProfile mem_profile = BuildMemoryProfile(session, profiled);
    std::printf("\n--- q6 stealing run: per-operator NUMA locality (sampled loads) ---\n");
    std::printf("%s\n", RenderMemoryLocality(mem_profile).c_str());
    std::printf("--- q6 stealing run: locality over time ---\n");
    ActivityTimeline locality = BuildLocalityTimeline(session, 60);
    std::printf("%s\n", RenderActivityTimeline(locality).c_str());
    json.BeginArray("locality");
    for (const MemoryProfileSeries& series : mem_profile.series) {
      json.BeginObject();
      json.Field("operator", series.label);
      json.Field("local_accesses", series.local_accesses);
      json.Field("remote_accesses", series.remote_accesses);
      json.Field("stolen_remote", series.stolen_remote);
      json.EndObject();
    }
    json.EndArray();

    // Slack-directed scheduling vs FIFO deques on the same skewed scan. Two FIFO runs feed the
    // SlackStore (the second stabilizes the EWMA), then the learned profile orders the third
    // run's deques so the skew band's zero-slack morsels start first and the cheap tail defers
    // to thieves. The policy only permutes the schedule: the gate demands an equal-or-better
    // critical path AND byte-identical results (the CI determinism job additionally double-runs
    // this section and diffs the JSON, so every number here must be deterministic).
    std::printf("\n--- Slack-directed scheduling vs FIFO: q6 on date-skewed lineitem ---\n");
    CompiledQuery sched_query =
        CompileParallel(skew_engine, *skew_db, spec, nullptr, spec.name + "_slack");
    ParallelConfig sched_config;
    sched_config.workers = 4;
    SlackStore store;
    constexpr uint64_t kSchedFp = 1;  // Engine-level run: any stable store key works.
    Result fifo_result;
    uint64_t fifo_wall = 0;
    uint64_t fifo_critical = 0;
    for (int pass = 0; pass < 2; ++pass) {
      fifo_result = skew_engine.ExecuteParallel(sched_query, sched_config);
      fifo_wall = skew_engine.last_cycles();
      const TaskDag dag = BuildTaskDag(skew_engine.last_task_boundaries());
      fifo_critical = dag.critical_work_cycles;
      store.Observe(kSchedFp, spec.name + "_slack", dag);
    }
    const Result slack_result =
        skew_engine.ExecuteParallel(sched_query, sched_config, store.Find(kSchedFp));
    const uint64_t slack_wall = skew_engine.last_cycles();
    const TaskDag slack_dag = BuildTaskDag(skew_engine.last_task_boundaries());
    const SchedStats sched_stats = skew_engine.last_sched_stats();
    std::string sched_diff;
    const bool sched_results_identical =
        Result::Equivalent(fifo_result, slack_result, true, &sched_diff);
    const bool sched_critical_ok = slack_dag.critical_work_cycles <= fifo_critical;
    std::printf("%-8s %14s %14s\n", "policy", "wall cycles", "critical path");
    std::printf("%-8s %14llu %14llu\n", "fifo", static_cast<unsigned long long>(fifo_wall),
                static_cast<unsigned long long>(fifo_critical));
    std::printf("%-8s %14llu %14llu\n", "slack", static_cast<unsigned long long>(slack_wall),
                static_cast<unsigned long long>(slack_dag.critical_work_cycles));
    std::printf("slack policy: %llu ordered scan(s), %llu hint hits, %llu deferred, "
                "%llu slack steals; critical path %.3fx %s, results %s\n",
                static_cast<unsigned long long>(sched_stats.slack_ordered_scans),
                static_cast<unsigned long long>(sched_stats.slack_hits),
                static_cast<unsigned long long>(sched_stats.deferred_morsels),
                static_cast<unsigned long long>(sched_stats.slack_steals),
                static_cast<double>(slack_dag.critical_work_cycles) /
                    static_cast<double>(std::max<uint64_t>(1, fifo_critical)),
                sched_critical_ok ? "[ok]" : "[FAIL]",
                sched_results_identical ? "identical [ok]" : "[FAIL: diverged]");
    json.BeginObject("slack_scheduling");
    json.Field("query", std::string("q6_skewed"));
    json.Field("workers", static_cast<uint64_t>(sched_config.workers));
    json.Field("fifo_wall_cycles", fifo_wall);
    json.Field("fifo_critical_cycles", fifo_critical);
    json.Field("slack_wall_cycles", slack_wall);
    json.Field("slack_critical_cycles", slack_dag.critical_work_cycles);
    json.Field("slack_ordered_scans", sched_stats.slack_ordered_scans);
    json.Field("slack_hits", sched_stats.slack_hits);
    json.Field("deferred_morsels", sched_stats.deferred_morsels);
    json.Field("slack_steals", sched_stats.slack_steals);
    json.Field("results_identical", sched_results_identical);
    json.Field("critical_path_ok", sched_critical_ok);
    json.EndObject();
    if (!sched_critical_ok || !sched_results_identical ||
        sched_stats.slack_ordered_scans == 0) {
      std::fprintf(stderr,
                   "FAIL: slack scheduling must engage (%llu ordered scans) with "
                   "equal-or-better critical path (slack=%llu fifo=%llu) and identical "
                   "results\n%s",
                   static_cast<unsigned long long>(sched_stats.slack_ordered_scans),
                   static_cast<unsigned long long>(slack_dag.critical_work_cycles),
                   static_cast<unsigned long long>(fifo_critical), sched_diff.c_str());
      return 1;
    }
  }

  // Drill-down: profile the 4-worker run of q1 and render the merged multi-level reports.
  {
    const QuerySpec& spec = FindQuery("q1");
    ProfilingConfig pconfig;
    pconfig.period = 2000;
    ProfilingSession session(pconfig);
    CompiledQuery query = CompileParallel(engine, *db, spec, &session, "q1_profiled");
    ParallelConfig config;
    config.workers = 4;
    engine.ExecuteParallel(query, config);
    session.Resolve(db->code_map());

    std::printf("\n--- q1 at 4 workers: per-worker activity (one lane per worker) ---\n");
    ActivityTimeline lanes = BuildWorkerActivityTimeline(session, 60);
    std::printf("%s\n", RenderActivityTimeline(lanes).c_str());

    std::printf("--- q1 at 4 workers: cost-annotated plan from the merged stream ---\n");
    OperatorProfile profile = BuildOperatorProfile(session, query);
    std::printf("%s\n", RenderAnnotatedPlan(profile, query).c_str());

    std::printf("--- q1 at 4 workers: attribution statistics ---\n");
    std::printf("%s\n", RenderAttributionStats(session.Stats()).c_str());
  }

  std::printf(
      "Expected shape: scan-heavy queries (q1, qgj) approach linear scaling until the\n"
      "sequential pipelines (group scan, output) and barriers dominate; q6's cheap scan\n"
      "saturates earlier. Idle share grows with the pool when morsel supply runs short.\n"
      "Auto-sized morsels cut dispatch counts on cheap scans at equal or better cycles.\n");

  if (GlobalBenchOptions().json) {
    json.EndObject();
    json.WriteTo("BENCH_scaling.json");
  }
  return 0;
}

}  // namespace
}  // namespace dfp

int main(int argc, char** argv) {
  dfp::BenchInit(argc, argv);
  return dfp::Main();
}
