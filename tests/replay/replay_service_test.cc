// Differential replay tests: recording a mixed warm/cold/tiered workload and replaying it on
// the same build must reproduce every observation — byte-identical sample streams (equal
// per-query stream hashes), identical service-profile text, identical tier timelines, an
// all-zero ReplayReport. A what-if replay
// under an edited ServiceConfig must flag exactly its intended delta, and scaled replays must
// degrade through admission control, not crashes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/plan/builder.h"
#include "src/plan/physical.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/replay/trace.h"
#include "src/service/service_profile.h"
#include "src/sql/binder.h"
#include "src/tiering/report.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

ServiceConfig TestConfig() {
  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.session_state_bytes = 512ull * 1024;
  config.profiling.period = 311;
  config.tiering.enabled = true;
  return config;
}

// Recording and replaying MUST use separate, identically generated databases: the service
// compiles code and carves session regions out of its database, so replaying into the
// recording database would shift every address (and therefore every sample stream).
std::unique_ptr<Database> MakeDb(const ServiceConfig& config) {
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  auto db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(*db, options);
  return db;
}

std::string Q6Variant(double lo, double hi, int quantity) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "select sum(l_extendedprice * l_discount) as revenue from lineitem "
                "where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
                "and l_discount between %.2f and %.2f and l_quantity < %d",
                lo, hi, quantity);
  return buffer;
}

struct Recording {
  WorkloadTrace trace;
  std::string profile_text;
  std::string timeline_text;
};

// Mixed workload: cold distinct structures (q1, q3), a warm exact repeat (q1), and a q6
// literal family driving parameterized patch hits, baseline-tier compiles, and a background
// promotion with an atomic swap — every serving mode the replayer must reproduce.
Recording RecordMixedWorkload(Database& db, const ServiceConfig& config) {
  QueryService service(db, config);
  TraceRecorder recorder;
  service.AttachRecorder(recorder);

  service.Submit(BuildQueryPlan(db, FindQuery("q1")), "q1");
  service.Submit(BuildQueryPlan(db, FindQuery("q3")), "q3");
  service.Drain();

  service.Submit(BuildQueryPlan(db, FindQuery("q1")), "q1");
  for (double lo : {0.02, 0.03, 0.04, 0.05}) {
    service.Submit(PlanSql(db, Q6Variant(lo, lo + 0.02, 24)), "q6");
  }
  service.Drain();

  for (double lo : {0.02, 0.03, 0.04}) {
    service.Submit(PlanSql(db, Q6Variant(lo, lo + 0.02, 24)), "q6");
  }
  service.Drain();

  recorder.Finish(service);
  Recording recording;
  recording.trace = recorder.trace();
  std::ostringstream profile;
  WriteServiceProfile(service.fleet_profile(), service.windows(), profile);
  recording.profile_text = profile.str();
  recording.timeline_text = RenderTierTimeline(service.windows(), service.tier_controller());
  return recording;
}

// Each replayed query's stream hash equals the recorded one, and every completed query hashed
// a non-empty stream.
void ExpectSameStreams(const WorkloadTrace& recorded, const WorkloadTrace& replayed) {
  ASSERT_EQ(replayed.queries.size(), recorded.queries.size());
  for (size_t i = 0; i < recorded.queries.size(); ++i) {
    EXPECT_FALSE(recorded.queries[i].completed && recorded.queries[i].stream_hash == 0);
    EXPECT_EQ(replayed.queries[i].stream_hash, recorded.queries[i].stream_hash)
        << "query " << i + 1;
  }
}

TEST(ReplayServiceTest, ZeroDiffReplayReproducesEveryObservation) {
  const ServiceConfig config = TestConfig();
  auto record_db = MakeDb(config);
  const Recording recording = RecordMixedWorkload(*record_db, config);

  // The workload genuinely mixes serving modes; otherwise the zero-diff claim is hollow.
  const TraceSummary& summary = recording.trace.summary;
  EXPECT_EQ(summary.queries, 10u);
  EXPECT_EQ(summary.completed, 10u);
  EXPECT_GT(summary.cache_hits, 0u);
  EXPECT_GT(summary.cache_misses, 0u);
  EXPECT_GT(summary.patched_hits, 0u);
  EXPECT_GT(summary.tier_swaps, 0u);
  EXPECT_GT(summary.samples, 0u);

  // Round-trip through the text format, as a persisted trace would.
  const std::string text = EncodeTraceText(recording.trace);
  std::istringstream in(text);
  const WorkloadTrace parsed = ReadTrace(in);
  EXPECT_EQ(EncodeTraceText(parsed), text);

  auto replay_db = MakeDb(config);
  const ReplayRun run = ReplayTrace(*replay_db, parsed);

  const ReplayReport report = DiffTraces(recording.trace, run.trace);
  EXPECT_TRUE(report.identical) << RenderReplayReport(report);
  EXPECT_TRUE(report.knobs_identical);
  EXPECT_TRUE(report.streams_identical);
  EXPECT_TRUE(report.tiers_identical);
  EXPECT_EQ(report.queries_diverged, 0u);
  EXPECT_EQ(report.results_diverged, 0u);

  // Byte-identical sample streams, per query.
  ExpectSameStreams(recording.trace, run.trace);
  // Identical rendered service views. The profile's `crit` lines fold every run's task DAG,
  // so equal texts mean every fingerprint's critical path came back too.
  for (const PlanTemplate& plan : recording.trace.templates) {
    EXPECT_NE(recording.profile_text.find("\ncrit " + Hex16(plan.structure) + " "),
              std::string::npos)
        << plan.name;
  }
  EXPECT_EQ(run.service_profile_text, recording.profile_text);
  EXPECT_EQ(run.tier_timeline_text, recording.timeline_text);
  // The replayed run's own trace re-serializes to the exact recorded text.
  EXPECT_EQ(EncodeTraceText(run.trace), text);
}

TEST(ReplayServiceTest, MutatedKnobReplayFlagsIntendedDeltaAndNothingElse) {
  const ServiceConfig config = TestConfig();
  auto record_db = MakeDb(config);
  const Recording recording = RecordMixedWorkload(*record_db, config);
  ASSERT_GT(recording.trace.summary.tier_swaps, 0u);

  // What-if: disable tiered compilation. The intended delta is the tier ladder disappearing —
  // no baseline compiles, no swaps, an empty baseline slice in the timeline.
  auto replay_db = MakeDb(config);
  ReplayOptions options;
  options.config = recording.trace.knobs;
  options.config->tiering.enabled = false;
  const ReplayRun run = ReplayTrace(*replay_db, recording.trace, options);
  const ReplayReport report = DiffTraces(recording.trace, run.trace);

  EXPECT_FALSE(report.identical);
  EXPECT_FALSE(report.knobs_identical);
  EXPECT_GT(report.recorded_tier_swaps, 0u);
  EXPECT_EQ(report.replayed_tier_swaps, 0u);
  EXPECT_EQ(run.trace.summary.tiers.baseline_samples, 0u);
  EXPECT_FALSE(report.tiers_identical);

  // ...and nothing else: same admission outcomes, same completions, same result row counts.
  EXPECT_EQ(report.replayed_queries, report.recorded_queries);
  EXPECT_EQ(report.replayed_completed, report.recorded_completed);
  EXPECT_EQ(report.replayed_rejected, report.recorded_rejected);
  EXPECT_EQ(report.replayed_timed_out, report.recorded_timed_out);
  EXPECT_EQ(report.results_diverged, 0u);
}

TEST(ReplayServiceTest, TenXSessionMultiplierDegradesThroughAdmissionControl) {
  const ServiceConfig config = TestConfig();
  auto record_db = MakeDb(config);
  const Recording recording = RecordMixedWorkload(*record_db, config);

  auto replay_db = MakeDb(config);
  ReplayOptions options;
  options.session_multiplier = 10;
  const ReplayRun run = ReplayTrace(*replay_db, recording.trace, options);
  ReplayReport report = DiffTraces(recording.trace, run.trace);
  report.session_multiplier = options.session_multiplier;

  EXPECT_FALSE(report.identical);
  EXPECT_EQ(report.replayed_queries, 10 * report.recorded_queries);
  // The bounded queue sheds the surplus instead of falling over...
  EXPECT_GT(report.replayed_rejected, report.recorded_rejected);
  // ...and everything admitted still finishes.
  EXPECT_EQ(report.replayed_completed + report.replayed_rejected + report.replayed_timed_out,
            report.replayed_queries);
  EXPECT_GT(report.replayed_completed, report.recorded_completed);
}

TEST(ReplayServiceTest, SchedulerWhatIfKeepsResultsWhileTimingShifts) {
  const ServiceConfig config = TestConfig();
  ASSERT_EQ(config.parallel.scheduler, SchedulerPolicy::kWorkStealing);
  auto record_db = MakeDb(config);
  const Recording recording = RecordMixedWorkload(*record_db, config);

  auto replay_db = MakeDb(config);
  ReplayOptions options;
  options.config = recording.trace.knobs;
  options.config->parallel.scheduler = SchedulerPolicy::kCentral;
  const ReplayRun run = ReplayTrace(*replay_db, recording.trace, options);
  const ReplayReport report = DiffTraces(recording.trace, run.trace);

  EXPECT_FALSE(report.knobs_identical);
  EXPECT_EQ(report.replayed_completed, report.recorded_completed);
  EXPECT_EQ(report.replayed_rejected, report.recorded_rejected);
  EXPECT_EQ(report.results_diverged, 0u);  // Same values out, whatever the schedule.
}

TEST(ReplayServiceTest, CatalogVersionMismatchThrows) {
  const ServiceConfig config = TestConfig();
  auto record_db = MakeDb(config);
  const Recording recording = RecordMixedWorkload(*record_db, config);

  auto replay_db = MakeDb(config);
  WorkloadTrace doctored = recording.trace;
  doctored.catalog_version += 1;
  EXPECT_THROW(ReplayTrace(*replay_db, doctored), Error);
}

TEST(ReplayServiceTest, AttachingRecorderToWarmedServiceThrows) {
  ServiceConfig config = TestConfig();
  config.state_path = ::testing::TempDir() + "dfp_replay_attach_test.profile";
  std::remove(config.state_path.c_str());
  auto db = MakeDb(config);
  {
    QueryService service(*db, config);
    service.Submit(BuildQueryPlan(*db, FindQuery("q6")), "q6");
    service.Drain();
  }  // Destructor persists the service clock.

  // A restarted service resumes a nonzero clock; replay traces must start from zero.
  auto db2 = MakeDb(config);
  QueryService warmed(*db2, config);
  TraceRecorder recorder;
  EXPECT_THROW(warmed.AttachRecorder(recorder), Error);
  std::remove(config.state_path.c_str());
}

// One q6 execution whose scan estimate is optionally hand-set (the SQL binder's join-ordering
// scenario): ResolveMorselRows sizes morsels from the estimate, so a tuned estimate genuinely
// changes the execution schedule and therefore the sample stream.
Recording RecordTunedQ6(Database& db, const ServiceConfig& config, double scan_estimate) {
  QueryService service(db, config);
  TraceRecorder recorder;
  service.AttachRecorder(recorder);

  PhysicalOpPtr plan = BuildQueryPlan(db, FindQuery("q6"));
  if (scan_estimate > 0) {
    for (PhysicalOp* op : PlanOperators(*plan)) {
      if (op->kind == OpKind::kTableScan) {
        op->estimated_rows = scan_estimate;
      }
    }
  }
  service.Submit(std::move(plan), "q6_tuned");
  service.Drain();

  recorder.Finish(service);
  Recording recording;
  recording.trace = recorder.trace();
  return recording;
}

TEST(ReplayServiceTest, HandSetEstimatesSurviveReplayRefinalization) {
  // Regression test: the replayer re-finalizes each cloned template after re-binding literals,
  // and must reset only default-derived estimates (estimate == bound). Zeroing unconditionally
  // would clobber hand-set estimates and silently diverge the replayed morsel schedule.
  const ServiceConfig config = TestConfig();
  auto stock_db = MakeDb(config);
  const Recording stock = RecordTunedQ6(*stock_db, config, 0);
  auto tuned_db = MakeDb(config);
  const Recording tuned = RecordTunedQ6(*tuned_db, config, 500);

  // The hand-set estimate is load-bearing: it shrinks the morsels, which moves every task
  // boundary and sample, so the tuned recording's stream differs from the stock one.
  ASSERT_EQ(stock.trace.queries.size(), 1u);
  ASSERT_EQ(tuned.trace.queries.size(), 1u);
  ASSERT_NE(tuned.trace.queries[0].stream_hash, stock.trace.queries[0].stream_hash);

  auto replay_db = MakeDb(config);
  const ReplayRun run = ReplayTrace(*replay_db, tuned.trace);
  const ReplayReport report = DiffTraces(tuned.trace, run.trace);
  EXPECT_TRUE(report.identical) << RenderReplayReport(report);
  ExpectSameStreams(tuned.trace, run.trace);
}

// The misestimated join spine from the reopt service tests: supplier (estimate 100) sits below
// the part filter (estimate 2000, measured ~50), so with re-optimization on, the loop re-plans
// and swaps within a few executions.
PhysicalOpPtr MisestimatedSpine(Database& db) {
  PlanBuilder supplier = PlanBuilder::Scan(db.table("supplier"));
  PlanBuilder part = PlanBuilder::Scan(db.table("part"));
  part.FilterBy(
      MakeBinary(BinOp::kLt, part.Col("p_partkey"), MakeLiteral(ColumnType::kInt64, 50)));
  PlanBuilder plan = PlanBuilder::Scan(db.table("lineitem"));
  plan.JoinWith(std::move(supplier), {"l_suppkey"}, {"s_suppkey"}, {"s_acctbal"});
  plan.JoinWith(std::move(part), {"l_partkey"}, {"p_partkey"}, {"p_retailprice"});
  return plan.Build();
}

Recording RecordReoptWorkload(Database& db, const ServiceConfig& config, int runs,
                              uint64_t* kept) {
  QueryService service(db, config);
  TraceRecorder recorder;
  service.AttachRecorder(recorder);
  for (int i = 0; i < runs; ++i) {
    service.Submit(MisestimatedSpine(db), "q_spine");
    service.Drain();
  }
  recorder.Finish(service);
  *kept = service.reopts().kept();
  Recording recording;
  recording.trace = recorder.trace();
  std::ostringstream profile;
  WriteServiceProfile(service.fleet_profile(), service.windows(), profile);
  recording.profile_text = profile.str();
  recording.timeline_text = RenderTierTimeline(service.windows(), service.tier_controller());
  return recording;
}

TEST(ReplayServiceTest, ReoptClosedLoopReplaysByteIdentical) {
  // A recording that decides, applies, and keeps a re-optimized plan mid-trace is still a pure
  // function of (config, submission sequence): identity replay reproduces the whole loop —
  // including the swap point — bit for bit.
  ServiceConfig config = TestConfig();
  config.reopt.enabled = true;
  config.continuous.window.width_cycles = 1'000'000;
  auto record_db = MakeDb(config);
  uint64_t kept = 0;
  const Recording recording = RecordReoptWorkload(*record_db, config, 14, &kept);
  ASSERT_EQ(kept, 1u);  // The recording genuinely swapped a candidate in and kept it.

  // The reopt knobs (trigger thresholds and guard bar) ride the trace's knobs line.
  const std::string text = EncodeTraceText(recording.trace);
  ASSERT_NE(text.find(" reopt.enabled=1 "), std::string::npos);
  std::istringstream in(text);
  const WorkloadTrace parsed = ReadTrace(in);

  auto replay_db = MakeDb(config);
  const ReplayRun run = ReplayTrace(*replay_db, parsed);
  const ReplayReport report = DiffTraces(recording.trace, run.trace);
  EXPECT_TRUE(report.identical) << RenderReplayReport(report);
  EXPECT_TRUE(report.streams_identical);
  ExpectSameStreams(recording.trace, run.trace);
  EXPECT_EQ(run.service_profile_text, recording.profile_text);
  EXPECT_EQ(run.tier_timeline_text, recording.timeline_text);
}

TEST(ReplayServiceTest, ReoptWhatIfChangesCodeButNeverResults) {
  // "What if re-optimization had been on?" against traffic recorded with it off: the replayed
  // loop re-plans and swaps, so post-swap queries run different compiled code (streams and
  // cycles diverge) — but a rewritten plan computes the same relation, so the gate is
  // results_diverged == 0.
  ServiceConfig config = TestConfig();
  config.continuous.window.width_cycles = 1'000'000;
  auto record_db = MakeDb(config);
  uint64_t kept = 0;
  const Recording recording = RecordReoptWorkload(*record_db, config, 14, &kept);
  ASSERT_EQ(kept, 0u);  // Off by default: the recording never re-planned.

  auto replay_db = MakeDb(config);
  ReplayOptions options;
  options.config = recording.trace.knobs;
  options.config->reopt.enabled = true;
  const ReplayRun run = ReplayTrace(*replay_db, recording.trace, options);
  const ReplayReport report = DiffTraces(recording.trace, run.trace);
  EXPECT_FALSE(report.knobs_identical);
  EXPECT_GT(report.queries_diverged, 0u);
  EXPECT_EQ(report.results_diverged, 0u);
  EXPECT_EQ(report.replayed_completed, report.recorded_completed);
  EXPECT_EQ(report.replayed_rejected, report.recorded_rejected);
}

// The message ReplayTrace throws for `trace`, or "" when it replays.
std::string ReplayError(Database& db, const WorkloadTrace& trace) {
  try {
    ReplayTrace(db, trace);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ReplayServiceTest, MissingTemplateThrows) {
  const ServiceConfig config = TestConfig();
  auto record_db = MakeDb(config);
  const Recording recording = RecordMixedWorkload(*record_db, config);

  auto replay_db = MakeDb(config);
  WorkloadTrace doctored = recording.trace;
  doctored.templates.clear();
  EXPECT_NE(ReplayError(*replay_db, doctored)
                .find("trace query 1 references a structure with no plan template"),
            std::string::npos);
}

TEST(ReplayServiceTest, DoctoredLiteralsFailTheFingerprintCheck) {
  // A query whose recorded literal fingerprint does not match the plan its literals rebuild
  // is a corrupt trace: the replay refuses it before submitting anything.
  const ServiceConfig config = TestConfig();
  auto record_db = MakeDb(config);
  const Recording recording = RecordMixedWorkload(*record_db, config);

  auto replay_db = MakeDb(config);
  WorkloadTrace doctored = recording.trace;
  doctored.queries[0].fingerprint.literals ^= 1;
  EXPECT_NE(ReplayError(*replay_db, doctored)
                .find("replayed plan fingerprint mismatch for trace query 1 (q1)"),
            std::string::npos);
}

}  // namespace
}  // namespace dfp
