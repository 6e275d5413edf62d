// ShardedService: fan-out results must be identical to the unsharded engine, payload for
// payload, and a plan a fan-out cannot compute exactly must be refused naming its join; routed
// queries must stay whole on one shard, the coordinator's Merge operator and CROSS_NODE traffic
// must be observable, catalog-version bumps must invalidate every shard's plan cache in one
// step, the 1-shard tower must be byte-identical to a plain QueryService, shards drained
// concurrently must match shards drained alone, and a shard-count what-if replay of a recorded
// trace must never move a result.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/engine/result.h"
#include "src/profiling/serialize.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/replay/trace.h"
#include "src/shard/coordinator.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/util/check.h"

namespace dfp {
namespace {

constexpr double kScale = 0.01;

ServiceConfig TestServiceConfig() {
  ServiceConfig config;
  config.parallel.workers = 2;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.profiling.period = 311;
  return config;
}

ShardServiceConfig TestShardConfig() {
  ShardServiceConfig config;
  config.service = TestServiceConfig();
  config.merge_sampling = DefaultMergeSampling();
  return config;
}

DatabaseConfig TestDbConfig(uint32_t shards) {
  DatabaseConfig config;
  config.columns_bytes = 64ull << 20;
  config.strings_bytes = 8ull << 20;
  config.hashtables_bytes = 16ull << 20;
  config.output_bytes = 16ull << 20;
  config.extra_bytes = ShardArenaBytes(TestShardConfig(), shards);
  return config;
}

ShardCatalog MakeCatalog(uint32_t shards) {
  ShardCatalogConfig config;
  config.shards = shards;
  config.db = TestDbConfig(shards);
  config.tpch.scale = kScale;
  return ShardCatalog(config);
}

ShardedService::PlanBuilder Builder(const std::string& name) {
  return [name](Database& db) { return BuildQueryPlan(db, FindQuery(name)); };
}

// The fan-out slice of the suite: ungrouped aggregation (q6), grouped AVG + full-key sort
// (q1), a co-partitioned join with CASE sums (q12), post-aggregation arithmetic (q14), and a
// co-partitioned semi join (q4).
const std::vector<std::string>& FanoutWorkload() {
  static const std::vector<std::string> workload = {"q6", "q1", "q12", "q14", "q4"};
  return workload;
}

// SQL beside the suite. The first three reach merge paths the suite does not: MIN and MAX
// over decimal, date and integer columns; a grouped MIN, MAX and integer AVG; and a bare LIMIT
// above fewer groups than it keeps, so which rows it keeps does not depend on their order. The
// last two join lineitem to a split input on other than the order key, so their matches span
// shards.
struct FanoutSql {
  const char* name;
  const char* sql;
  bool ordered;  // The query defines its rows' order.
};
const FanoutSql kFanoutSql[] = {
    {"min_max",
     "select min(l_quantity), max(l_extendedprice), min(l_shipdate), max(l_orderkey) "
     "from lineitem",
     true},
    {"grouped_int_avg",
     "select l_returnflag, min(l_linenumber), max(l_linenumber), avg(l_linenumber) "
     "from lineitem group by l_returnflag order by l_returnflag",
     true},
    {"bare_limit",
     "select l_returnflag, l_linestatus, count(*) from lineitem "
     "group by l_returnflag, l_linestatus limit 10",
     false},
    {"partkey_self_join",
     "select a.l_returnflag, count(*) from lineitem a, lineitem b "
     "where a.l_partkey = b.l_partkey and a.l_quantity < 2 and b.l_quantity < 2 "
     "group by a.l_returnflag",
     false},
    {"suppkey_custkey_join",
     "select count(*) from lineitem, orders where l_suppkey = o_custkey and l_quantity < 2",
     false},
};

// The queries a fan-out refuses: q18 (HAVING above the GroupBy) and qgj (no GroupBy) by the
// spine shape, the rest by the join rule (src/shard/decompose.h).
const std::set<std::string>& RefusedQueries() {
  static const std::set<std::string> refused = {"q18", "qgj", "q22", "partkey_self_join",
                                                "suppkey_custkey_join"};
  return refused;
}

// `result`'s rows, sorted when the query leaves their order open.
std::vector<std::vector<int64_t>> ComparableRows(const Result& result, bool ordered) {
  std::vector<std::vector<int64_t>> rows = result.rows();
  if (!ordered) {
    std::sort(rows.begin(), rows.end());
  }
  return rows;
}

void ExpectFanoutMatchesUnsharded(uint32_t shards) {
  SCOPED_TRACE(std::to_string(shards) + " shards");
  ShardCatalog catalog = MakeCatalog(shards);
  ShardedService sharded(catalog, TestShardConfig());

  auto plain_db = std::make_unique<Database>(TestDbConfig(shards));
  TpchOptions options;
  options.scale = kScale;
  GenerateTpch(*plain_db, options);
  QueryService plain(*plain_db, TestServiceConfig());

  // Every suite query and every SQL query, each as a plan builder.
  struct Query {
    std::string name;
    ShardedService::PlanBuilder build;
    bool ordered;
  };
  std::vector<Query> queries;
  for (const QuerySpec& spec : TpchQuerySuite()) {
    queries.push_back({spec.name, Builder(spec.name), spec.ordered_result});
  }
  for (const FanoutSql& query : kFanoutSql) {
    const std::string sql = query.sql;
    queries.push_back(
        {query.name, [sql](Database& db) { return PlanSql(db, sql); }, query.ordered});
  }

  // A plan either fans out (or routes) and returns exactly the unsharded rows, or is refused at
  // Submit with dfp::Error naming the operator that cannot run shard by shard. Batches stay
  // below the queue depth.
  constexpr size_t kBatch = kQueueDepth / 2;
  std::set<std::string> refused;
  size_t fanout = 0;
  size_t routed = 0;
  for (size_t begin = 0; begin < queries.size(); begin += kBatch) {
    struct Pair {
      const Query* query;
      TicketId sharded;
      TicketId plain;
    };
    std::vector<Pair> pairs;
    for (size_t q = begin; q < std::min(begin + kBatch, queries.size()); ++q) {
      const Query& query = queries[q];
      PhysicalOpPtr plain_plan = query.build(*plain_db);
      try {
        const TicketId id = sharded.Submit(query.name, query.build);
        pairs.push_back({&query, id, plain.Submit(std::move(plain_plan), query.name)});
      } catch (const Error& error) {
        refused.insert(query.name);
        EXPECT_NE(std::string(error.what()).find("fan-out decomposition: "), std::string::npos)
            << query.name << ": " << error.what();
      }
    }
    sharded.Drain();
    plain.Drain();
    for (const Pair& pair : pairs) {
      const ShardTicket& ticket = sharded.ticket(pair.sharded);
      const std::string& name = pair.query->name;
      ASSERT_EQ(ticket.status, TicketStatus::kDone) << name;
      ASSERT_EQ(plain.ticket(pair.plain).status, TicketStatus::kDone) << name;
      EXPECT_EQ(ticket.result.schema().size(), plain.ticket(pair.plain).result.schema().size())
          << name;
      const auto got = ComparableRows(ticket.result, pair.query->ordered);
      const auto want = ComparableRows(plain.ticket(pair.plain).result, pair.query->ordered);
      ASSERT_EQ(got.size(), want.size()) << name;
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got[r], want[r]) << name << " row " << r;
      }
      if (ticket.fanout) {
        ++fanout;
        // The stitched timing includes the coordinator merge on top of the slowest shard.
        EXPECT_GT(ticket.merge_cycles, 0u) << name;
        EXPECT_GE(ticket.execute_cycles, ticket.merge_cycles) << name;
      } else {
        ++routed;
      }
    }
  }
  EXPECT_EQ(refused, RefusedQueries());
  EXPECT_EQ(sharded.fanout_queries(), fanout);
  EXPECT_EQ(sharded.routed_queries(), routed);
  EXPECT_EQ(routed, 1u);  // q16 reads only replicated tables.
  EXPECT_EQ(fanout + routed + refused.size(), queries.size());

  // Fan-out staged remote partials across the shard fabric: visible as CROSS_NODE PMU events
  // and cross-node NUMA traffic on the coordinator, and as bytes in the ticket accounting.
  EXPECT_GT(sharded.cross_node_bytes(), 0u);
  EXPECT_GT(sharded.coordinator_counters()[PmuEvent::kCrossNode], 0u);
  EXPECT_GT(sharded.coordinator_numa_stats().cross_node_accesses, 0u);

  // The Merge operator is part of the fleet profile's operator breakdown.
  const FleetAggregate fleet = sharded.AggregateFleet();
  EXPECT_EQ(fleet.leaves, shards + 1);  // The shards + the coordinator leaf.
  bool merge_listed = false;
  for (const auto& [fingerprint, plan] : fleet.plans) {
    (void)fingerprint;
    merge_listed |= plan.operators.count(kMergeOperatorId) != 0;
  }
  EXPECT_TRUE(merge_listed);
}

TEST(ShardedService, FanoutResultsMatchUnshardedEngine) {
  ExpectFanoutMatchesUnsharded(2);
  ExpectFanoutMatchesUnsharded(4);
}

TEST(ShardedService, RefusedJoinsNameTheJoin) {
  // Each plan pairs rows that live on different shards at the named join.
  ShardCatalog catalog = MakeCatalog(2);
  ShardedService sharded(catalog, TestShardConfig());
  const auto refusal = [&](const std::string& name, const ShardedService::PlanBuilder& build) {
    try {
      sharded.Submit(name, build);
    } catch (const Error& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(refusal("q22", Builder("q22")),
            "fan-out decomposition: AntiJoin orders matches replicated probe rows against a "
            "build side split across shards");
  for (const FanoutSql& query : kFanoutSql) {
    if (RefusedQueries().count(query.name) != 0) {
      const std::string sql = query.sql;
      const std::string message =
          refusal(query.name, [sql](Database& db) { return PlanSql(db, sql); });
      EXPECT_NE(message.find("fan-out decomposition: HashJoin "), std::string::npos) << message;
      EXPECT_NE(message.find("joins two inputs split across shards on other than the order key"),
                std::string::npos)
          << message;
    }
  }
  EXPECT_EQ(sharded.fanout_queries() + sharded.routed_queries(), 0u);
}

TEST(ShardedService, RoutedQueriesStayWholeOnOneShard) {
  ShardCatalog catalog = MakeCatalog(2);
  ShardedService sharded(catalog, TestShardConfig());

  auto plain_db = std::make_unique<Database>(TestDbConfig(2));
  TpchOptions options;
  options.scale = kScale;
  GenerateTpch(*plain_db, options);
  QueryService plain(*plain_db, TestServiceConfig());

  // q16 touches only replicated tables (part, partsupp): no fan-out, no merge, no staging.
  const TicketId sharded_id = sharded.Submit("q16", Builder("q16"));
  const TicketId plain_id = plain.Submit(BuildQueryPlan(*plain_db, FindQuery("q16")), "q16");
  sharded.Drain();
  plain.Drain();

  const ShardTicket& ticket = sharded.ticket(sharded_id);
  EXPECT_FALSE(ticket.fanout);
  EXPECT_EQ(ticket.shard_tickets.size(), 1u);
  EXPECT_EQ(ticket.merge_cycles, 0u);
  EXPECT_EQ(sharded.routed_queries(), 1u);
  EXPECT_EQ(sharded.fanout_queries(), 0u);
  EXPECT_EQ(sharded.cross_node_bytes(), 0u);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(ticket.result, plain.ticket(plain_id).result, true, &diff))
      << diff;

  // Repeats of the family land on the same shard's plan cache.
  sharded.Submit("q16", Builder("q16"));
  sharded.Drain();
  const QueryService& owner = sharded.shard(ticket.owner_shard);
  EXPECT_GE(owner.plan_cache().stats().hits, 1u);
}

TEST(ShardedService, CoordinatedInvalidationDropsEveryShardCache) {
  ShardCatalog catalog = MakeCatalog(2);
  ShardedService sharded(catalog, TestShardConfig());
  sharded.Submit("q6", Builder("q6"));
  sharded.Drain();
  EXPECT_EQ(sharded.coordinated_invalidations(), 0u);

  // Warm repeat: both shards hit their caches.
  sharded.Submit("q6", Builder("q6"));
  sharded.Drain();
  EXPECT_GE(sharded.shard(0).plan_cache().stats().hits, 1u);
  EXPECT_GE(sharded.shard(1).plan_cache().stats().hits, 1u);

  // DDL on every shard bumps the shared catalog version; the next submission must run the
  // coordinated invalidation and recompile on every shard.
  for (uint32_t s = 0; s < catalog.shards(); ++s) {
    TableBuilder builder = catalog.db(s).CreateTableBuilder(
        TableSchema{"ddl_probe", {{"x", ColumnType::kInt64}}});
    catalog.db(s).AddTable(builder.Finish());
  }
  const uint64_t misses_before =
      sharded.shard(0).plan_cache().stats().misses + sharded.shard(1).plan_cache().stats().misses;
  const TicketId after_ddl = sharded.Submit("q6", Builder("q6"));
  sharded.Drain();
  EXPECT_EQ(sharded.coordinated_invalidations(), 1u);
  EXPECT_EQ(sharded.ticket(after_ddl).status, TicketStatus::kDone);
  const uint64_t misses_after =
      sharded.shard(0).plan_cache().stats().misses + sharded.shard(1).plan_cache().stats().misses;
  EXPECT_EQ(misses_after, misses_before + 2);  // One recompile per shard.
}

TEST(ShardedService, OneShardTowerIsByteIdenticalToPlainService) {
  ShardCatalog catalog = MakeCatalog(1);
  ShardedService tower(catalog, TestShardConfig());

  auto plain_db = std::make_unique<Database>(TestDbConfig(1));
  TpchOptions options;
  options.scale = kScale;
  GenerateTpch(*plain_db, options);
  QueryService plain(*plain_db, TestServiceConfig());

  const std::vector<std::string> workload = {"q6", "q1", "q16", "q6"};
  std::vector<TicketId> tower_ids;
  std::vector<TicketId> plain_ids;
  for (const std::string& name : workload) {
    tower_ids.push_back(tower.Submit(name, Builder(name)));
    plain_ids.push_back(plain.Submit(BuildQueryPlan(*plain_db, FindQuery(name)), name));
  }
  tower.Drain();
  plain.Drain();

  for (size_t i = 0; i < workload.size(); ++i) {
    std::string diff;
    EXPECT_TRUE(Result::Equivalent(tower.ticket(tower_ids[i]).result,
                                   plain.ticket(plain_ids[i]).result, true, &diff))
        << workload[i] << ": " << diff;
    EXPECT_FALSE(tower.ticket(tower_ids[i]).fanout);
  }
  // The degenerate tower has no merger and no cross-node machinery; its single shard behaves
  // byte-identically to the plain service (same profiles, same clocks, same streams).
  EXPECT_EQ(tower.fanout_queries(), 0u);
  EXPECT_EQ(tower.cross_node_bytes(), 0u);
  EXPECT_EQ(tower.merge_sample_count(), 0u);
  EXPECT_EQ(tower.shard(0).fleet_profile().Render(), plain.fleet_profile().Render());
  EXPECT_EQ(tower.shard(0).ServiceNowCycles(), plain.ServiceNowCycles());

  const FleetAggregate fleet = tower.AggregateFleet();
  EXPECT_EQ(fleet.leaves, 1u);
  EXPECT_EQ(fleet.levels, 0u);
  EXPECT_EQ(fleet.rollup_cycles, 0u);
}

TEST(ShardedService, FleetRegressionSweepNamesTheRegressedShards) {
  // A fan-out plan executes on every shard, so an injected plan-mix shift regresses every
  // shard's windows at once. The coordinator sweep must surface each shard's finding stamped
  // with its 1-based shard id, so a fleet alert sink can tell WHERE the plan regressed.
  ShardServiceConfig config = TestShardConfig();
  config.service.continuous.window.width_cycles = 2'500'000;
  ShardCatalog catalog = MakeCatalog(2);
  ShardedService sharded(catalog, config);

  auto run_batch = [&](const std::string& sql, int count) {
    for (int i = 0; i < count; ++i) {
      sharded.Submit("q6", [&sql](Database& db) { return PlanSql(db, sql); });
      sharded.Drain();
    }
  };
  // q6 with much wider literals: same structure (and therefore the same fingerprint on every
  // shard), drastically different selectivity — the injected shift.
  const std::string baseline_sql = FindQuery("q6").sql;
  const std::string shifted_sql =
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= date '1992-01-01' and l_shipdate < date '1999-01-01' "
      "and l_discount between 0.00 and 0.10 and l_quantity < 100";

  run_batch(baseline_sql, 4);
  sharded.SnapshotBaselines();

  // Identical rerun: every shard's mix reproduces, the fleet sweep stays quiet.
  run_batch(baseline_sql, 4);
  EXPECT_TRUE(sharded.DetectRegressions().empty());

  run_batch(shifted_sql, 4);
  std::vector<RegressionFinding> findings = sharded.DetectRegressions();
  ASSERT_EQ(findings.size(), 2u);
  // Shard order: the sweep visits shard 1 then shard 2; both flagged the same structure.
  EXPECT_EQ(findings[0].shard_id, 1u);
  EXPECT_EQ(findings[1].shard_id, 2u);
  EXPECT_EQ(findings[0].fingerprint, findings[1].fingerprint);
  for (const RegressionFinding& finding : findings) {
    EXPECT_TRUE(finding.share_regressed || finding.cycles_per_row_regressed ||
                finding.remote_regressed);
  }
}

TEST(ShardedService, FleetAggregateIsDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    ShardCatalog catalog = MakeCatalog(2);
    ShardedService sharded(catalog, TestShardConfig());
    for (const std::string& name : FanoutWorkload()) {
      sharded.Submit(name, Builder(name));
    }
    sharded.Drain();
    std::ostringstream json;
    WriteFleetAggregateJson(sharded.AggregateFleet(), json);
    return json.str();
  };
  EXPECT_EQ(run(), run());
}

std::string SampleStream(const QueryTicket& ticket) {
  std::ostringstream out;
  WriteSamples(ticket.session->samples(), out);
  return out.str();
}

TEST(ShardedService, ParallelDrainMatchesShardsDrainedAlone) {
  // Three rounds of the fan-out slice plus a routed q16 on 4 shards, which Drain() runs on
  // several host threads when the host has the cores. Each shard must behave exactly as it
  // does when drained alone.
  constexpr uint32_t kShards = 4;
  std::vector<std::string> round = FanoutWorkload();
  round.push_back("q16");
  ShardCatalog catalog = MakeCatalog(kShards);
  ShardedService sharded(catalog, TestShardConfig());
  {
    // The oracle: a second catalog whose shard services get the same per-shard plans and are
    // drained one after another on this thread. They belong to a coordinator of their own only
    // so that shard 0's database gets the same merge staging regions and host segment; that
    // coordinator never drains or merges.
    ShardCatalog alone_catalog = MakeCatalog(kShards);
    ShardedService alone(alone_catalog, TestShardConfig());
    struct SubTicket {
      uint32_t shard = 0;
      TicketId sharded = 0;
      TicketId alone = 0;
    };
    std::vector<SubTicket> subs;
    for (int r = 0; r < 3; ++r) {
      for (const std::string& name : round) {
        const ShardTicket& ticket = sharded.ticket(sharded.Submit(name, Builder(name)));
        ASSERT_EQ(ticket.fanout, name != "q16");
        for (uint32_t s = 0; s < kShards; ++s) {
          // Built on every shard, as the coordinator does, so the string heaps stay aligned.
          PhysicalOpPtr plan = BuildQueryPlan(alone_catalog.db(s), FindQuery(name));
          if (ticket.fanout) {
            subs.push_back({s, ticket.shard_tickets[s],
                            alone.shard(s).Submit(BuildPartialPlan(*plan), name)});
          } else if (s == ticket.owner_shard) {
            subs.push_back(
                {s, ticket.shard_tickets[0], alone.shard(s).Submit(std::move(plan), name)});
          }
        }
      }
      sharded.Drain();
      for (uint32_t s = 0; s < kShards; ++s) {
        alone.shard(s).Drain();
      }
    }
    for (const SubTicket& sub : subs) {
      const QueryTicket& got = sharded.shard(sub.shard).ticket(sub.sharded);
      const QueryTicket& want = alone.shard(sub.shard).ticket(sub.alone);
      SCOPED_TRACE(got.name + " on shard " + std::to_string(sub.shard));
      EXPECT_EQ(got.status, TicketStatus::kDone);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.compile_cycles, want.compile_cycles);
      EXPECT_EQ(got.execute_cycles, want.execute_cycles);
      EXPECT_EQ(got.completed_at_cycles, want.completed_at_cycles);
      ASSERT_NE(got.session, nullptr);
      ASSERT_NE(want.session, nullptr);
      EXPECT_GT(got.session->samples().size(), 0u);
      EXPECT_EQ(got.session->samples().size(), want.session->samples().size());
      EXPECT_EQ(SampleStream(got), SampleStream(want));
    }
    for (uint32_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(sharded.shard(s).fleet_profile().Render(), alone.shard(s).fleet_profile().Render())
          << "shard " << s;
    }
  }

  // A second 4-shard run of the same rounds aggregates to the same fleet profile.
  ShardCatalog again_catalog = MakeCatalog(kShards);
  ShardedService again(again_catalog, TestShardConfig());
  for (int r = 0; r < 3; ++r) {
    for (const std::string& name : round) {
      again.Submit(name, Builder(name));
    }
    again.Drain();
  }
  EXPECT_EQ(RenderFleetAggregate(again.AggregateFleet()),
            RenderFleetAggregate(sharded.AggregateFleet()));
}

TEST(ShardReplay, ShardCountWhatIfNeverMovesResults) {
  // Record a mixed fan-out workload (literal variants included) on a plain service.
  const ServiceConfig record_config = TestServiceConfig();
  DatabaseConfig record_db_config = TestDbConfig(1);
  record_db_config.extra_bytes = ServiceArenaBytes(record_config);
  auto record_db = std::make_unique<Database>(record_db_config);
  TpchOptions options;
  options.scale = kScale;
  GenerateTpch(*record_db, options);
  WorkloadTrace trace;
  {
    QueryService recorded(*record_db, record_config);
    TraceRecorder recorder;
    recorded.AttachRecorder(recorder);
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q1")), "q1");
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q6")), "q6");
    recorded.Drain();
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q12")), "q12");
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q16")), "q16");
    recorded.Drain();
    recorder.Finish(recorded);
    trace = recorder.trace();
  }

  // The catalog's shard count is the topology the trace replays onto.
  ShardCatalog catalog = MakeCatalog(2);
  ReplayOptions replay_options;
  replay_options.shards = &catalog;
  const ReplayRun run = ReplayTrace(catalog.db(0), trace, replay_options);
  const ReplayReport report = DiffTraces(trace, run.trace);

  // Sharding re-partitions execution (fan-out + merge, different streams and timing) but must
  // not move a single result: zero result divergence, every recorded query completed.
  EXPECT_EQ(report.results_diverged, 0u);
  EXPECT_EQ(report.replayed_queries, report.recorded_queries);
  EXPECT_EQ(report.replayed_completed, report.recorded_completed);
  // Note knobs_identical stays true: each shard runs the RECORDED service configuration —
  // the shard count changes topology, not knobs.
  EXPECT_TRUE(report.knobs_identical);
  EXPECT_FALSE(run.service_profile_text.empty());
}

TEST(ShardReplay, DoctoredLiteralsFailTheFingerprintCheck) {
  // The sharded replay rebuilds its plans with the unsharded replay's checks: a recorded
  // literal fingerprint its literals do not rebuild is refused as a corrupt trace.
  const ServiceConfig record_config = TestServiceConfig();
  DatabaseConfig record_db_config = TestDbConfig(1);
  record_db_config.extra_bytes = ServiceArenaBytes(record_config);
  auto record_db = std::make_unique<Database>(record_db_config);
  TpchOptions options;
  options.scale = kScale;
  GenerateTpch(*record_db, options);
  WorkloadTrace trace;
  {
    QueryService recorded(*record_db, record_config);
    TraceRecorder recorder;
    recorded.AttachRecorder(recorder);
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q6")), "q6");
    recorded.Drain();
    recorder.Finish(recorded);
    trace = recorder.trace();
  }
  trace.queries[0].fingerprint.literals ^= 1;

  ShardCatalog catalog = MakeCatalog(2);
  ReplayOptions replay_options;
  replay_options.shards = &catalog;
  try {
    ReplayTrace(catalog.db(0), trace, replay_options);
    ADD_FAILURE() << "doctored trace replayed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "replayed plan fingerprint mismatch for trace query 1 (q6)"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace dfp
