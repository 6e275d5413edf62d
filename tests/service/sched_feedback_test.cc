// Profile-feedback scheduling through the serving layer (DESIGN.md §2h): slack-directed deque
// ordering engages from the second execution and keeps results byte-identical to FIFO and
// deterministic across double runs; slack-aware admission bounces infeasible deadlines from
// the expected critical-path length; the SlackStore round-trips through the service state file;
// the guarded placement-repair loop turns a remote-DRAM-bound verdict into exactly one
// re-partition — kept when it wins, reverted when repair_pessimize makes it lose — and a
// recorded repair replays identically under the recorded guard thresholds.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/engine/result.h"
#include "src/service/placement_repair.h"
#include "src/service/query_service.h"
#include "src/service/service_profile.h"
#include "src/profiling/serialize.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/vcpu/vmem.h"

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
  return config;
}

std::unique_ptr<Database> MakeDb(const ServiceConfig& config) {
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  auto db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(*db, options);
  return db;
}

TicketId RunOne(QueryService& service, Database& db, const std::string& name) {
  const TicketId id = service.Submit(BuildQueryPlan(db, FindQuery(name)), name);
  service.Drain();
  return id;
}

bool HasEvent(const std::vector<SampleStreamEvent>& events, const std::string& needle) {
  for (const SampleStreamEvent& event : events) {
    if (event.text.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(SchedFeedback, SlackOrderingKeepsResultsByteIdenticalToFifo) {
  // The slack policy only permutes schedules — morsel order within a scan and steal victims —
  // so a slack-scheduled service must produce bit-identical results to the FIFO one, while its
  // counters prove the policy actually engaged (from the second execution: the first one is
  // what the store learns from).
  ServiceConfig fifo_config = TestConfig();
  ServiceConfig slack_config = TestConfig();
  slack_config.sched.slack_scheduling = true;

  auto fifo_db = MakeDb(fifo_config);
  auto slack_db = MakeDb(slack_config);
  QueryService fifo(*fifo_db, fifo_config);
  QueryService slack(*slack_db, slack_config);

  for (int i = 0; i < 3; ++i) {
    const TicketId f = RunOne(fifo, *fifo_db, "q6");
    const TicketId s = RunOne(slack, *slack_db, "q6");
    ASSERT_EQ(fifo.ticket(f).status, TicketStatus::kDone);
    ASSERT_EQ(slack.ticket(s).status, TicketStatus::kDone);
    std::string diff;
    EXPECT_TRUE(Result::Equivalent(fifo.ticket(f).result, slack.ticket(s).result, true, &diff))
        << "run " << i << ": " << diff;
    EXPECT_EQ(fifo.ticket(f).result.rows(), slack.ticket(s).result.rows()) << "run " << i;
  }

  // FIFO never consults the store; the slack service ordered the scans of runs 2 and 3.
  EXPECT_EQ(fifo.sched_stats().slack_ordered_scans, 0u);
  EXPECT_EQ(fifo.slack().generation(), 0u);
  EXPECT_GE(slack.sched_stats().slack_ordered_scans, 2u);
  EXPECT_GT(slack.sched_stats().slack_hits, 0u);
  EXPECT_EQ(slack.slack().generation(), 3u);
}

TEST(SchedFeedback, DoubleRunSlackSchedulingIsDeterministic) {
  // Steal-victim tie-break determinism: under a flat slack profile every victim comparison
  // falls through to the NUMA-then-lowest-id tie-break, and under a learned one the stable
  // deque sort keeps equal-slack morsels in deal order — either way two identical services
  // must produce byte-identical sample streams, task schedules, and slack stores.
  ServiceConfig config = TestConfig();
  config.sched.slack_scheduling = true;

  auto run_workload = [&config](std::vector<std::string>* streams) {
    auto db = MakeDb(config);
    QueryService service(*db, config);
    for (const char* name : {"q6", "q1", "q6", "q6"}) {
      const TicketId id = RunOne(service, *db, name);
      const QueryTicket& ticket = service.ticket(id);
      EXPECT_EQ(ticket.status, TicketStatus::kDone);
      std::ostringstream out;
      WriteSamples(ticket.session->samples(), out, {.tasks = ticket.task_boundaries});
      streams->push_back(out.str());
    }
    std::ostringstream state;
    WriteServiceState(service.fleet_profile(), service.windows(), service.baseline(),
                      service.ServiceNowCycles(), state, &service.slack());
    streams->push_back(state.str());
    return service.sched_stats();
  };

  std::vector<std::string> first_streams;
  std::vector<std::string> second_streams;
  const SchedStats first = run_workload(&first_streams);
  const SchedStats second = run_workload(&second_streams);
  ASSERT_EQ(first_streams.size(), second_streams.size());
  for (size_t i = 0; i < first_streams.size(); ++i) {
    EXPECT_EQ(first_streams[i], second_streams[i]) << "stream " << i;
  }
  EXPECT_GT(first.slack_ordered_scans, 0u);
  EXPECT_EQ(first.slack_ordered_scans, second.slack_ordered_scans);
  EXPECT_EQ(first.slack_hits, second.slack_hits);
  EXPECT_EQ(first.deferred_morsels, second.deferred_morsels);
  EXPECT_EQ(first.slack_steals, second.slack_steals);
}

TEST(SchedFeedback, DeadlineAdmissionRejectsInfeasibleDeadlines) {
  ServiceConfig config = TestConfig();
  config.sched.deadline_admission = true;
  auto db = MakeDb(config);
  QueryService service(*db, config);

  // First execution: the store is empty (expected == 0), so any deadline is admitted — the
  // run is how admission learns the critical-path length.
  const TicketId first = RunOne(service, *db, "q6");
  ASSERT_EQ(service.ticket(first).status, TicketStatus::kDone);
  const uint64_t fp = service.ticket(first).fingerprint.structure;
  const uint64_t expected = service.slack().ExpectedCriticalPathCycles(fp);
  ASSERT_GT(expected, 0u);

  // A deadline below the expected critical path is infeasible even on an idle pool: bounced
  // at submission, flagged distinctly from a queue-full rejection, logged as a sched event.
  const TicketId infeasible =
      service.Submit(BuildQueryPlan(*db, FindQuery("q6")), "q6", expected / 2);
  EXPECT_EQ(service.ticket(infeasible).status, TicketStatus::kRejected);
  EXPECT_TRUE(service.ticket(infeasible).infeasible_deadline);
  EXPECT_EQ(service.infeasible_rejections(), 1u);
  EXPECT_TRUE(HasEvent(service.sched_events(), "admission"));
  EXPECT_TRUE(HasEvent(service.sched_events(), "infeasible"));

  // A feasible deadline passes admission and completes.
  const TicketId feasible =
      service.Submit(BuildQueryPlan(*db, FindQuery("q6")), "q6", expected * 100);
  service.Drain();
  EXPECT_EQ(service.ticket(feasible).status, TicketStatus::kDone);
  EXPECT_FALSE(service.ticket(feasible).infeasible_deadline);
  EXPECT_EQ(service.infeasible_rejections(), 1u);
}

TEST(SchedFeedback, SlackStoreRoundTripsThroughServiceState) {
  ServiceConfig config = TestConfig();
  config.sched.slack_scheduling = true;
  config.state_path = ::testing::TempDir() + "dfp_sched_state_test.profile";
  std::remove(config.state_path.c_str());

  uint64_t fp = 0;
  uint64_t expected = 0;
  uint64_t generation = 0;
  {
    auto db = MakeDb(config);
    QueryService service(*db, config);
    const TicketId id = RunOne(service, *db, "q6");
    RunOne(service, *db, "q6");
    fp = service.ticket(id).fingerprint.structure;
    expected = service.slack().ExpectedCriticalPathCycles(fp);
    generation = service.slack().generation();
    ASSERT_GT(expected, 0u);
    ASSERT_EQ(generation, 2u);
  }  // Destructor persists the state, slack store included.

  // A slack-carrying state file holds the slackgen/slack/slackstep lines.
  std::ifstream in(config.state_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\nslackgen "), std::string::npos);
  EXPECT_NE(text.find("\nslack "), std::string::npos);
  EXPECT_NE(text.find("\nslackstep "), std::string::npos);

  // Restart: the expected critical path, the generation clock (age-out resumes where the old
  // process stopped), and the per-step profiles all survive — and re-saving without serving
  // anything reproduces the file byte for byte.
  auto db = MakeDb(config);
  QueryService restarted(*db, config);
  EXPECT_EQ(restarted.slack().generation(), generation);
  EXPECT_EQ(restarted.slack().ExpectedCriticalPathCycles(fp), expected);
  const PlanSlack* plan = restarted.slack().Find(fp);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->executions, 2u);
  EXPECT_FALSE(plan->steps.empty());
  restarted.SaveState();
  std::ifstream rein(config.state_path);
  std::stringstream rebuffer;
  rebuffer << rein.rdbuf();
  EXPECT_EQ(rebuffer.str(), text);
  std::remove(config.state_path.c_str());
}

// --- Guarded placement repair -------------------------------------------------------------
//
// The default range partition is consumer-aligned (the deal rule and NumaMap use the same
// row split), so a remote-DRAM-bound scan has to be provoked: the tests install a
// swapped-halves placement on a subset of the lineitem columns q6 reads, which makes every
// access to those columns remote without touching the deal. The repair then re-partitions ALL
// the table's columns toward the observed consumers: the normal map matches consumption (the
// guard keeps it), the pessimized map misplaces every read column — strictly worse than the
// baseline's partial misplacement — and the guard must revert.

ServiceConfig RepairConfig() {
  ServiceConfig config = TestConfig();
  config.parallel.workers = 4;  // Four workers on four nodes: worker i consumes quarter i.
  config.sched.placement_repair = true;
  // A long sampling period keeps the PMU capture overhead from swamping the pipeline cycles
  // the classifier prices (at the 311-cycle period the stall share never clears the
  // remote-DRAM-bound threshold); one window per completion lets the guard's post-apply
  // rollup resolve on the very next execution.
  config.profiling.period = 10007;
  config.continuous.window.width_cycles = 1'000'000;
  // The repair legitimately shifts the operator sample mix, so the mix check is disabled and
  // the guard rides on the remote-share drift the re-partition actually targets. The default
  // 0.10 drift is sized for whole-table migrations; the injected rotation moves the share by
  // ~0.02 (measured deterministically), so the test pins a matching threshold.
  config.continuous.regression.share_drift = 10.0;
  config.continuous.regression.remote_share_drift = 0.015;
  return config;
}

// q6 reads l_quantity(4), l_extendedprice(5), l_discount(6), l_shipdate(10). Three of the
// four go remote: enough traffic to clear the classifier's mem-stall threshold, while the
// untouched fourth keeps the pessimized all-columns-rotated map strictly worse than the
// baseline misplacement.
void MisplaceColumns(Database& db, const std::vector<size_t>& columns) {
  const Table& lineitem = db.table("lineitem");
  const PartitionMap swapped = {{kPlacementDenom / 2, 1}, {kPlacementDenom, 0}};
  for (size_t c : columns) {
    db.mem().SetExtentPlacement(lineitem.column_base(c), swapped);
  }
}

// Runs q6 until the single repair action resolves (or `max_runs` is hit); returns the number
// of completed runs.
int RunUntilResolved(QueryService& service, Database& db, int max_runs) {
  int runs = 0;
  while (runs < max_runs) {
    RunOne(service, db, "q6");
    ++runs;
    const GuardedAction<RepairPayload>* action =
        service.repairs().actions().empty() ? nullptr : &service.repairs().actions().front();
    if (action != nullptr &&
        (action->state == GuardState::kKept || action->state == GuardState::kReverted)) {
      break;
    }
  }
  return runs;
}

TEST(SchedFeedback, RepairKeptWhenRelocationWins) {
  const ServiceConfig config = RepairConfig();
  auto db = MakeDb(config);
  MisplaceColumns(*db, {4, 6, 10});
  QueryService service(*db, config);

  const TicketId first = RunOne(service, *db, "q6");
  ASSERT_EQ(service.ticket(first).status, TicketStatus::kDone);
  // The misplacement must actually show up as a remote-DRAM-bound verdict — that is the
  // trigger the whole loop hangs off.
  bool remote_bound = false;
  for (const PipelineVerdict& v : service.ticket(first).verdicts) {
    remote_bound |= v.label == Bottleneck::kRemoteDramBound;
  }
  ASSERT_TRUE(remote_bound) << "misplaced columns did not produce a remote-DRAM-bound verdict";

  // Exactly one action: decided and applied at the first completion, kept once the guard has
  // post-apply evidence.
  ASSERT_EQ(service.repairs().actions().size(), 1u);
  EXPECT_EQ(service.repairs().actions().front().state, GuardState::kApplied);
  EXPECT_TRUE(HasEvent(service.sched_events(), "decided"));
  EXPECT_TRUE(HasEvent(service.sched_events(), "applied"));

  RunUntilResolved(service, *db, 8);
  ASSERT_EQ(service.repairs().actions().size(), 1u);
  const GuardedAction<RepairPayload>& action = service.repairs().actions().front();
  EXPECT_EQ(action.state, GuardState::kKept);
  EXPECT_EQ(action.payload.table, "lineitem");
  EXPECT_FALSE(action.payload.placement.empty());
  EXPECT_EQ(service.repairs().applied(), 1u);
  EXPECT_EQ(service.repairs().reverted(), 0u);
  EXPECT_TRUE(HasEvent(service.sched_events(), "kept"));

  // The consumer map stays installed on every column of the table.
  const Table& lineitem = db->table("lineitem");
  for (size_t c = 0; c < lineitem.schema().columns.size(); ++c) {
    EXPECT_NE(db->mem().ExtentPlacement(lineitem.column_base(c)), nullptr) << "column " << c;
  }

  // Placement moves data, never results: every run returned the first run's rows.
  const TicketId last = RunOne(service, *db, "q6");
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(service.ticket(first).result, service.ticket(last).result,
                                 true, &diff))
      << diff;

  // The audit trail renders tier-timeline-style.
  const std::string timeline = RenderGuardTimeline(service.repairs());
  EXPECT_NE(timeline.find("lineitem"), std::string::npos);
  EXPECT_NE(timeline.find("kept"), std::string::npos);
}

TEST(SchedFeedback, RepairRevertedWhenPessimized) {
  ServiceConfig config = RepairConfig();
  config.sched.repair_pessimize = true;  // Injected fault: every repair map is rotated a node.
  auto db = MakeDb(config);
  MisplaceColumns(*db, {4, 6, 10});
  QueryService service(*db, config);

  const TicketId first = RunOne(service, *db, "q6");
  ASSERT_EQ(service.ticket(first).status, TicketStatus::kDone);
  ASSERT_EQ(service.repairs().actions().size(), 1u);
  EXPECT_EQ(service.repairs().actions().front().state, GuardState::kApplied);

  RunUntilResolved(service, *db, 8);
  ASSERT_EQ(service.repairs().actions().size(), 1u);
  const GuardedAction<RepairPayload>& action = service.repairs().actions().front();
  EXPECT_EQ(action.state, GuardState::kReverted);
  EXPECT_EQ(service.repairs().applied(), 0u);
  EXPECT_EQ(service.repairs().reverted(), 1u);
  EXPECT_TRUE(HasEvent(service.sched_events(), "reverted"));

  // The revert restored the default placement on every column — including the test's own bad
  // maps, which the apply had overwritten.
  const Table& lineitem = db->table("lineitem");
  for (size_t c = 0; c < lineitem.schema().columns.size(); ++c) {
    EXPECT_EQ(db->mem().ExtentPlacement(lineitem.column_base(c)), nullptr) << "column " << c;
  }

  // A resolved action never re-triggers: the loop must not oscillate.
  RunOne(service, *db, "q6");
  EXPECT_EQ(service.repairs().actions().size(), 1u);

  // Results stayed byte-identical through apply and revert.
  const TicketId last = RunOne(service, *db, "q6");
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(service.ticket(first).result, service.ticket(last).result,
                                 true, &diff))
      << diff;
  const std::string timeline = RenderGuardTimeline(service.repairs());
  EXPECT_NE(timeline.find("reverted"), std::string::npos);
}

TEST(SchedFeedback, PessimizedRepairReplaysIdentically) {
  // The repair guard judges by the service's regression thresholds, so a recording made under
  // non-default ones must replay under them too: identity replay on an identically misplaced
  // database reproduces the apply, the revert, and every later run bit for bit.
  ServiceConfig config = RepairConfig();
  config.sched.repair_pessimize = true;
  auto record_db = MakeDb(config);
  MisplaceColumns(*record_db, {4, 6, 10});
  QueryService service(*record_db, config);
  TraceRecorder recorder;
  service.AttachRecorder(recorder);
  for (int i = 0; i < 8; ++i) {
    RunOne(service, *record_db, "q6");
  }
  recorder.Finish(service);
  ASSERT_EQ(service.repairs().reverted(), 1u);

  auto replay_db = MakeDb(config);
  MisplaceColumns(*replay_db, {4, 6, 10});
  const ReplayRun run = ReplayTrace(*replay_db, recorder.trace());
  const ReplayReport report = DiffTraces(recorder.trace(), run.trace);
  EXPECT_TRUE(report.identical) << RenderReplayReport(report);
  EXPECT_EQ(report.queries_diverged, 0u);
}

}  // namespace
}  // namespace dfp
