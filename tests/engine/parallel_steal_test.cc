// NUMA-aware work-stealing scheduler: result equivalence with the sequential engine, steals on
// skewed morsel distributions with equal-or-better cycles than central dispatch, correct
// attribution of stolen morsels, locality-stamped samples, order preservation for bare-LIMIT
// pipelines, and bit-level determinism of the stealing schedule.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/profiling/serialize.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

Database* TpchDb() {
  static Database* db = [] {
    auto* instance = new Database();
    TpchOptions options;
    options.scale = 0.01;
    GenerateTpch(*instance, options);
    return instance;
  }();
  return db;
}

// Database with date-correlated orders: q6's qualifying rows cluster into one contiguous band
// of lineitem, so the nodes owning the band run long and the rest of the pool must steal.
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

TEST(ParallelSteal, MatchesSequentialAcrossQueries) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  for (const char* name : {"q1", "q3", "q6", "q18", "qgj"}) {
    const QuerySpec& spec = FindQuery(name);
    CompiledQuery sequential = engine.Compile(BuildQueryPlan(db, spec), nullptr, spec.name);
    Result expected = engine.Execute(sequential);
    CompiledQuery parallel = engine.Compile(BuildQueryPlan(db, spec), nullptr,
                                            spec.name + "_steal", ParallelOptions());
    for (uint32_t workers : {2u, 4u}) {
      ParallelConfig config;
      config.workers = workers;
      config.scheduler = SchedulerPolicy::kWorkStealing;
      Result result = engine.ExecuteParallel(parallel, config);
      std::string diff;
      EXPECT_TRUE(Result::Equivalent(result, expected, spec.ordered_result, &diff))
          << spec.name << " at " << workers << " workers: " << diff;
    }
  }
}

TEST(ParallelSteal, SkewedScanStealsAndBeatsCentral) {
  Database& db = *SkewedDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  CompiledQuery sequential = engine.Compile(BuildQueryPlan(db, spec), nullptr, "q6_seq");
  Result expected = engine.Execute(sequential);
  CompiledQuery parallel =
      engine.Compile(BuildQueryPlan(db, spec), nullptr, "q6_steal", ParallelOptions());

  ParallelConfig central;
  central.workers = 4;
  central.scheduler = SchedulerPolicy::kCentral;
  engine.ExecuteParallel(parallel, central);
  const uint64_t central_cycles = engine.last_cycles();
  uint64_t central_local = 0;
  uint64_t central_remote = 0;
  for (const WorkerMetrics& w : engine.last_worker_metrics()) {
    EXPECT_EQ(w.steals, 0u) << "central dispatch must never steal (worker " << w.worker_id
                            << ")";
    central_local += w.numa_stats.local_accesses;
    central_remote += w.numa_stats.remote_accesses;
  }

  ParallelConfig stealing;
  stealing.workers = 4;
  stealing.scheduler = SchedulerPolicy::kWorkStealing;
  Result result = engine.ExecuteParallel(parallel, stealing);
  const uint64_t stealing_cycles = engine.last_cycles();
  uint64_t steals = 0;
  uint64_t local = 0;
  uint64_t remote = 0;
  for (const WorkerMetrics& w : engine.last_worker_metrics()) {
    EXPECT_EQ(w.node, w.worker_id % 4) << "one node per worker by default";
    steals += w.steals;
    local += w.numa_stats.local_accesses;
    remote += w.numa_stats.remote_accesses;
  }

  std::string diff;
  EXPECT_TRUE(Result::Equivalent(result, expected, spec.ordered_result, &diff)) << diff;
  // The acceptance bar of the scheduler: the skew must actually trigger steals, and paying for
  // them must still be no worse than the locality-blind central schedule.
  EXPECT_GT(steals, 0u);
  EXPECT_LE(stealing_cycles, central_cycles)
      << "stealing " << stealing_cycles << " vs central " << central_cycles;
  // Node-local deques must raise the local share of NUMA-managed traffic well above the
  // locality-blind central schedule (the sequential pipeline tail keeps hitting interleaved
  // state/output regions under both policies, so a flat local-majority bound would overreach).
  const double central_share =
      static_cast<double>(central_local) / static_cast<double>(central_local + central_remote);
  const double stealing_share =
      static_cast<double>(local) / static_cast<double>(local + remote);
  EXPECT_GT(stealing_share, central_share + 0.1)
      << "stealing " << stealing_share << " local share vs central " << central_share;
}

TEST(ParallelSteal, StolenSamplesCarryLocalityAndAttribute) {
  Database& db = *SkewedDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  ProfilingConfig pconfig;
  pconfig.event = PmuEvent::kLoads;
  pconfig.period = 200;
  pconfig.capture_address = true;
  ProfilingSession session(pconfig);
  CompiledQuery query = engine.Compile(BuildQueryPlan(db, spec), &session, "q6_locprof",
                                       ParallelOptions());
  ParallelConfig config;
  config.workers = 4;
  config.scheduler = SchedulerPolicy::kWorkStealing;
  engine.ExecuteParallel(query, config);
  session.Resolve(db.code_map());

  uint64_t stolen = 0;
  uint64_t stolen_attributed = 0;
  uint64_t with_node = 0;
  uint64_t remote = 0;
  for (const ResolvedSample& sample : session.resolved()) {
    if (sample.stolen) {
      ++stolen;
      if (sample.category == ResolvedSample::Category::kOperator) {
        ++stolen_attributed;
      }
    }
    if (sample.mem_node != kNoNumaNode) {
      ++with_node;
      remote += sample.numa_remote ? 1 : 0;
    }
  }
  // The skewed scan steals, and the Tagging Dictionary attributes stolen morsels exactly like
  // any other: the thief runs the same tagged code.
  ASSERT_GT(stolen, 0u);
  EXPECT_EQ(stolen, stolen_attributed);
  // Address capture on a NUMA run stamps home nodes; both localities must occur.
  ASSERT_GT(with_node, 0u);
  EXPECT_GT(remote, 0u);
  EXPECT_GT(with_node, remote);

  // The locality fields survive the serialization round trip sample-for-sample.
  std::ostringstream out;
  WriteSamples(session.samples(), out);
  std::istringstream in(out.str());
  std::vector<Sample> reread = ReadSamples(in);
  ASSERT_EQ(reread.size(), session.samples().size());
  for (size_t i = 0; i < reread.size(); ++i) {
    EXPECT_EQ(reread[i].stolen, session.samples()[i].stolen) << i;
    EXPECT_EQ(reread[i].mem_node, session.samples()[i].mem_node) << i;
    EXPECT_EQ(reread[i].numa_remote, session.samples()[i].numa_remote) << i;
  }
}

TEST(ParallelSteal, StealingScheduleIsDeterministic) {
  Database& db = *SkewedDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  ProfilingConfig pconfig;
  pconfig.period = 311;
  ProfilingSession session(pconfig);
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), &session, "q6_det", ParallelOptions());
  ParallelConfig config;
  config.workers = 4;
  config.scheduler = SchedulerPolicy::kWorkStealing;
  auto run = [&] {
    engine.ExecuteParallel(query, config);
    uint64_t steals = 0;
    for (const WorkerMetrics& w : engine.last_worker_metrics()) {
      steals += w.steals;
    }
    std::ostringstream out;
    WriteSamples(session.samples(), out);
    return std::make_pair(steals, out.str());
  };
  const auto [steals1, stream1] = run();
  const auto [steals2, stream2] = run();
  EXPECT_EQ(steals1, steals2);
  EXPECT_EQ(stream1, stream2);  // Byte-identical merged sample streams.
  EXPECT_EQ(engine.last_cycles(), engine.last_cycles());
}

TEST(ParallelSteal, BareLimitKeepsTableOrder) {
  // A bare LIMIT over a scan returns "the first N rows in table order". Stealing would permute
  // which morsel appends first, so limit pipelines must fall back to central dispatch — the
  // result has to match sequential execution row for row.
  Database& db = *TpchDb();
  QueryEngine engine(&db);
  auto build = [&] {
    PlanBuilder scan = PlanBuilder::Scan(db.table("lineitem"));
    scan.LimitTo(1000);
    return scan.Build();
  };
  CompiledQuery sequential = engine.Compile(build(), nullptr, "limit_seq");
  Result expected = engine.Execute(sequential);
  CompiledQuery parallel = engine.Compile(build(), nullptr, "limit_par", ParallelOptions());
  for (uint32_t workers : {2u, 4u}) {
    ParallelConfig config;
    config.workers = workers;
    config.scheduler = SchedulerPolicy::kWorkStealing;
    Result result = engine.ExecuteParallel(parallel, config);
    std::string diff;
    EXPECT_TRUE(Result::Equivalent(result, expected, /*ordered=*/true, &diff))
        << workers << " workers: " << diff;
    for (const WorkerMetrics& w : engine.last_worker_metrics()) {
      EXPECT_EQ(w.steals, 0u) << "order-sensitive pipelines must not steal";
    }
  }
}

TEST(ParallelSteal, SingleNodeTopologyHasNoRemoteTraffic) {
  // One worker means one node: the topology collapses, everything is local, and nothing pays
  // the penalty.
  Database& db = *SkewedDb();
  QueryEngine engine(&db);
  const QuerySpec& spec = FindQuery("q6");
  CompiledQuery parallel =
      engine.Compile(BuildQueryPlan(db, spec), nullptr, "q6_flat", ParallelOptions());
  ParallelConfig config;
  config.workers = 1;
  engine.ExecuteParallel(parallel, config);
  uint64_t local = 0;
  uint64_t remote = 0;
  for (const WorkerMetrics& w : engine.last_worker_metrics()) {
    EXPECT_EQ(w.node, 0u);
    local += w.numa_stats.local_accesses;
    remote += w.numa_stats.remote_accesses;
  }
  EXPECT_GT(local, 0u);
  EXPECT_EQ(remote, 0u);
}

}  // namespace
}  // namespace dfp
