// The closed re-optimization loop through the serving layer (DESIGN.md §2j): an injected
// misestimate triggers a re-plan whose candidate compiles on the background lane and swaps in
// atomically; the guard keeps a winning candidate and reverts an injected pessimizing rewrite;
// results stay bit-identical through decide, apply, keep, and revert; the CardStore and reopt
// log round-trip through the service profile; reopt sideband lines round-trip through sample
// streams; a second fingerprint's re-plan applying mid-guard leaves the first action's verdict
// and timing alone; and the whole loop is deterministic across double runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/engine/result.h"
#include "src/plan/builder.h"
#include "src/profiling/serialize.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/service/query_service.h"
#include "src/service/service_profile.h"
#include "src/tpch/datagen.h"
#include "src/util/check.h"

namespace dfp {
namespace {

ServiceConfig ReoptConfigFor() {
  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.session_state_bytes = 512ull * 1024;
  config.profiling.period = 311;
  // Re-optimization rides the tiered cache's swap machinery, so tiering must be on.
  config.tiering.enabled = true;
  config.reopt.enabled = true;
  // One window per completion so the guard's post-swap rollup resolves within a few runs.
  config.continuous.window.width_cycles = 1'000'000;
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

// Scan(lineitem) |>< build joins with one payload column each, both probe-keyed on the base
// stream. `part_first` picks which join sits at the bottom of the spine. The part filter
// passes only `part_bound` of the table's 2000 keys, so its finalized estimate (2000 rows,
// derived from the bound) is the injected misestimate the loop must correct.
// Other payload columns make another structural fingerprint with the same misestimate.
PhysicalOpPtr SpinePlan(Database& db, bool part_first, int64_t part_bound,
                        const std::string& supplier_payload = "s_acctbal",
                        const std::string& part_payload = "p_retailprice") {
  PlanBuilder supplier = PlanBuilder::Scan(db.table("supplier"));
  PlanBuilder part = PlanBuilder::Scan(db.table("part"));
  part.FilterBy(MakeBinary(BinOp::kLt, part.Col("p_partkey"),
                           MakeLiteral(ColumnType::kInt64, part_bound)));
  PlanBuilder plan = PlanBuilder::Scan(db.table("lineitem"));
  if (part_first) {
    plan.JoinWith(std::move(part), {"l_partkey"}, {"p_partkey"}, {part_payload});
    plan.JoinWith(std::move(supplier), {"l_suppkey"}, {"s_suppkey"}, {supplier_payload});
  } else {
    plan.JoinWith(std::move(supplier), {"l_suppkey"}, {"s_suppkey"}, {supplier_payload});
    plan.JoinWith(std::move(part), {"l_partkey"}, {"p_partkey"}, {part_payload});
  }
  return plan.Build();
}

TicketId RunSpine(QueryService& service, Database& db, bool part_first, int64_t part_bound) {
  const TicketId id = service.Submit(SpinePlan(db, part_first, part_bound), "q_spine");
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

// Runs until the fingerprint's action reaches kKept or kReverted (or max_runs).
int RunUntilResolved(QueryService& service, Database& db, bool part_first, int64_t part_bound,
                     int max_runs) {
  int runs = 0;
  while (runs < max_runs) {
    RunSpine(service, db, part_first, part_bound);
    ++runs;
    const GuardedAction<ReoptPayload>* action = service.reopts().actions().empty()
                                    ? nullptr
                                    : &service.reopts().actions().front();
    if (action != nullptr &&
        (action->state == GuardState::kKept || action->state == GuardState::kReverted)) {
      break;
    }
  }
  return runs;
}

TEST(ReoptService, MisestimateTriggersReplanAndGuardKeepsTheWinner) {
  // The plan carries supplier (estimate 100) below part-filter (estimate 2000), matching the
  // estimates; the measurements say the part filter passes ~50 rows, a 40x divergence. The
  // loop must re-plan, hoist the part join down, keep the candidate, and never change a row.
  const ServiceConfig config = ReoptConfigFor();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  const TicketId first = RunSpine(service, *db, false, 50);
  ASSERT_EQ(service.ticket(first).status, TicketStatus::kDone);
  const uint64_t fp = service.ticket(first).fingerprint.structure;

  // Tuple counters feed the store from the first execution.
  const PlanCards* cards = service.cards().Find(fp);
  ASSERT_NE(cards, nullptr);
  EXPECT_EQ(cards->executions, 1u);
  EXPECT_GE(service.cards().MaxDivergencePct(fp), config.reopt.divergence_pct);

  // Not before min_executions: the EWMAs need evidence before re-planning.
  EXPECT_TRUE(service.reopts().actions().empty());
  int runs = 1;
  while (service.reopts().actions().empty() && runs < 8) {
    RunSpine(service, *db, false, 50);
    ++runs;
  }
  ASSERT_FALSE(service.reopts().actions().empty());
  EXPECT_GE(static_cast<uint64_t>(runs), config.reopt.min_executions);
  EXPECT_EQ(service.reopts().actions().front().fingerprint, fp);
  EXPECT_TRUE(service.reopts().actions().front().payload.reordered);
  EXPECT_GE(service.reopts().actions().front().payload.divergence_pct, 400u);
  EXPECT_TRUE(HasEvent(service.reopt_events(), "decided"));

  RunUntilResolved(service, *db, false, 50, 12);
  ASSERT_EQ(service.reopts().actions().size(), 1u);
  const GuardedAction<ReoptPayload>& action = service.reopts().actions().front();
  EXPECT_EQ(action.state, GuardState::kKept);
  EXPECT_GT(action.applied_tsc, action.decided_tsc);
  EXPECT_GE(action.resolved_tsc, action.applied_tsc);
  EXPECT_EQ(service.reopts().kept(), 1u);
  EXPECT_EQ(service.reopts().reverted(), 0u);
  EXPECT_TRUE(HasEvent(service.reopt_events(), "applied"));
  EXPECT_TRUE(HasEvent(service.reopt_events(), "kept"));

  // The swap changed compiled code, never rows. The work-stealing scheduler appends output in
  // morsel-completion order, which legitimately differs between the two physical plans, so the
  // row multisets compare unordered.
  const TicketId last = RunSpine(service, *db, false, 50);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(service.ticket(first).result, service.ticket(last).result,
                                 false, &diff))
      << diff;
  EXPECT_GT(service.ticket(last).result.row_count(), 0u);

  // A resolved action never re-triggers (the kept plan re-estimated from its measurements).
  RunSpine(service, *db, false, 50);
  EXPECT_EQ(service.reopts().actions().size(), 1u);

  const std::string timeline = RenderGuardTimeline(service.reopts());
  EXPECT_NE(timeline.find("q_spine"), std::string::npos);
  EXPECT_NE(timeline.find("[kept]"), std::string::npos);
  EXPECT_NE(timeline.find("reorder"), std::string::npos);
}

TEST(ReoptService, GuardRevertsInjectedPessimizingRewrite) {
  // The plan already carries the measured-optimal order (part filter at the bottom kills
  // 97.5% of the stream early); reopt.pessimize rewrites it to the worst order. The guard
  // must catch the regression, re-insert the original entry, and keep results identical.
  ServiceConfig config = ReoptConfigFor();
  config.reopt.pessimize = true;
  auto db = MakeDb(config);
  QueryService service(*db, config);

  const TicketId first = RunSpine(service, *db, true, 50);
  ASSERT_EQ(service.ticket(first).status, TicketStatus::kDone);

  RunUntilResolved(service, *db, true, 50, 16);
  ASSERT_EQ(service.reopts().actions().size(), 1u);
  const GuardedAction<ReoptPayload>& action = service.reopts().actions().front();
  EXPECT_EQ(action.state, GuardState::kReverted);
  EXPECT_EQ(service.reopts().kept(), 0u);
  EXPECT_EQ(service.reopts().reverted(), 1u);
  EXPECT_TRUE(HasEvent(service.reopt_events(), "decided"));
  EXPECT_TRUE(HasEvent(service.reopt_events(), "reverted"));

  // The revert restored the original entry; the loop must not oscillate.
  RunSpine(service, *db, true, 50);
  EXPECT_EQ(service.reopts().actions().size(), 1u);

  // The row multiset stayed identical through apply and revert (unordered: stealing permutes
  // which morsel appends output first, and the pessimized interlude shifts the interleaving).
  const TicketId last = RunSpine(service, *db, true, 50);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(service.ticket(first).result, service.ticket(last).result,
                                 false, &diff))
      << diff;
  const std::string timeline = RenderGuardTimeline(service.reopts());
  EXPECT_NE(timeline.find("reverted"), std::string::npos);
}

// q_spine's guarded re-plan from apply to verdict. With `overlap` set, a second spine family
// (another fingerprint) decides and applies its own re-plan after kOverlapAfter of q_spine's
// post-apply runs, while q_spine's guard is still measuring.
constexpr int kOverlapAfter = 2;

struct GuardTrack {
  int post_apply_runs = 0;
  GuardState state = GuardState::kDecided;
};

GuardTrack TrackSpineGuard(bool overlap) {
  ServiceConfig config = ReoptConfigFor();
  // A spine run yields ~9.1k samples at this period: six pre-apply runs clear the snapshot's
  // min_samples floor, and the guard needs four post-apply runs to judge.
  config.reopt.min_executions = 6;
  config.reopt.guard.min_samples = 30000;
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const uint64_t fp = service.ticket(RunSpine(service, *db, false, 50)).fingerprint.structure;
  auto action = [&service, fp] { return service.reopts().Find(fp); };
  for (int run = 0; run < 8 && action() == nullptr; ++run) {
    RunSpine(service, *db, false, 50);
  }
  GuardTrack track;
  if (action() == nullptr || action()->state != GuardState::kApplied) {
    return track;
  }
  while (track.post_apply_runs < 16 && action()->state == GuardState::kApplied) {
    if (overlap && track.post_apply_runs == kOverlapAfter) {
      for (int run = 0; run < 8 && service.reopts().applied() < 2; ++run) {
        service.Submit(SpinePlan(*db, false, 50, "s_nationkey", "p_size"), "q_other_spine");
        service.Drain();
      }
      EXPECT_EQ(service.reopts().applied(), 2u);
    }
    RunSpine(service, *db, false, 50);
    ++track.post_apply_runs;
  }
  track.state = action()->state;
  return track;
}

TEST(ReoptService, OverlappingGuardsJudgeEachActionAgainstItsOwnBaseline) {
  // Each guarded action measures against the baseline taken at its own apply, so another
  // fingerprint's apply must not move it: the first action resolves after as many post-apply
  // runs, with the same verdict, as when it runs alone.
  const GuardTrack alone = TrackSpineGuard(false);
  ASSERT_EQ(alone.state, GuardState::kKept);
  ASSERT_GT(alone.post_apply_runs, kOverlapAfter);
  const GuardTrack overlapped = TrackSpineGuard(true);
  EXPECT_EQ(overlapped.post_apply_runs, alone.post_apply_runs);
  EXPECT_EQ(overlapped.state, alone.state);
}

TEST(ReoptService, ReoptSidebandRoundTripsThroughSampleStreams) {
  const ServiceConfig config = ReoptConfigFor();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  RunUntilResolved(service, *db, false, 50, 12);
  ASSERT_FALSE(service.reopt_events().empty());

  const TicketId last = RunSpine(service, *db, false, 50);
  std::ostringstream out;
  WriteSamples(service.ticket(last).session->samples(), out,
               {.reopt = service.reopt_events()});
  const std::string text = out.str();
  EXPECT_NE(text.find("\nreopt "), std::string::npos);

  // Round trip: the reopt lines come back through the sideband sink, in stream order.
  std::istringstream in(text);
  SampleSideband sideband;
  ReadSamples(in, &sideband);
  const std::vector<SampleStreamEvent>& reopt = sideband.reopt;
  ASSERT_EQ(reopt.size(), service.reopt_events().size());
  for (size_t i = 0; i < reopt.size(); ++i) {
    EXPECT_EQ(reopt[i].tsc, service.reopt_events()[i].tsc);
    EXPECT_EQ(reopt[i].text, service.reopt_events()[i].text);
  }

  // A reader without a sideband sink must reject the stream instead of dropping lines.
  std::istringstream no_sink(text);
  EXPECT_THROW(ReadSamples(no_sink), Error);
}

TEST(ReoptService, CardsAndReoptLogRoundTripThroughServiceProfileV6) {
  ServiceConfig config = ReoptConfigFor();
  config.state_path = ::testing::TempDir() + "dfp_reopt_state_test.profile";
  std::remove(config.state_path.c_str());

  uint64_t fp = 0;
  uint64_t generation = 0;
  uint64_t observed = 0;
  {
    auto db = MakeDb(config);
    QueryService service(*db, config);
    const TicketId id = RunSpine(service, *db, false, 50);
    fp = service.ticket(id).fingerprint.structure;
    RunUntilResolved(service, *db, false, 50, 12);
    ASSERT_EQ(service.reopts().kept(), 1u);
    generation = service.cards().generation();
    const PlanCards* cards = service.cards().Find(fp);
    ASSERT_NE(cards, nullptr);
    ASSERT_FALSE(cards->operators.empty());
    observed = cards->operators.begin()->second.observed_rows;
  }  // Destructor persists the state, cards and reopt log included.

  std::ifstream in(config.state_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("# dfp service profile v6"), std::string::npos);
  EXPECT_NE(text.find("\ncardgen "), std::string::npos);
  EXPECT_NE(text.find("\ncardplan "), std::string::npos);
  EXPECT_NE(text.find("\ncard "), std::string::npos);
  EXPECT_NE(text.find("\nreopt "), std::string::npos);

  // Restart: generation clock, per-operator EWMAs, and the kept action all survive — and the
  // kept action still blocks re-triggering. Re-saving without serving reproduces the file
  // byte for byte.
  auto db = MakeDb(config);
  QueryService restarted(*db, config);
  EXPECT_EQ(restarted.cards().generation(), generation);
  const PlanCards* cards = restarted.cards().Find(fp);
  ASSERT_NE(cards, nullptr);
  EXPECT_EQ(cards->operators.begin()->second.observed_rows, observed);
  const GuardedAction<ReoptPayload>* action = restarted.reopts().Find(fp);
  ASSERT_NE(action, nullptr);
  EXPECT_EQ(action->state, GuardState::kKept);
  EXPECT_EQ(action->payload.previous, nullptr);
  restarted.SaveState();
  std::ifstream rein(config.state_path);
  std::stringstream rebuffer;
  rebuffer << rein.rdbuf();
  EXPECT_EQ(rebuffer.str(), text);
  std::remove(config.state_path.c_str());
}

TEST(ReoptService, DoubleRunReoptLoopIsDeterministic) {
  // The whole loop — counters, EWMAs, trigger, background compile, swap, guard — is a pure
  // function of the submission sequence: two identical services must produce byte-identical
  // sample streams, reopt event text, and state files.
  const ServiceConfig config = ReoptConfigFor();

  auto run_workload = [&config](std::vector<std::string>* artifacts) {
    auto db = MakeDb(config);
    QueryService service(*db, config);
    for (int i = 0; i < 8; ++i) {
      const TicketId id = RunSpine(service, *db, false, 50);
      EXPECT_EQ(service.ticket(id).status, TicketStatus::kDone);
      std::ostringstream out;
      WriteSamples(service.ticket(id).session->samples(), out,
                   {.tasks = service.ticket(id).task_boundaries,
                    .reopt = service.reopt_events()});
      artifacts->push_back(out.str());
    }
    std::ostringstream state;
    WriteServiceState(service.fleet_profile(), service.windows(), service.baseline(),
                      service.ServiceNowCycles(), state, nullptr, &service.cards(),
                      &service.reopts());
    artifacts->push_back(state.str());
    artifacts->push_back(RenderGuardTimeline(service.reopts()));
    artifacts->push_back(RenderCardStore(service.cards()));
    return service.reopts().kept();
  };

  std::vector<std::string> first;
  std::vector<std::string> second;
  const uint64_t first_kept = run_workload(&first);
  const uint64_t second_kept = run_workload(&second);
  EXPECT_EQ(first_kept, 1u);
  EXPECT_EQ(first_kept, second_kept);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "artifact " << i;
  }
}

TEST(ReoptService, DisabledByDefaultKeepsCountersOff) {
  ServiceConfig config = ReoptConfigFor();
  config.reopt.enabled = false;
  auto db = MakeDb(config);
  QueryService service(*db, config);
  RunSpine(service, *db, false, 50);
  RunSpine(service, *db, false, 50);
  EXPECT_EQ(service.cards().generation(), 0u);
  EXPECT_TRUE(service.reopts().actions().empty());
  EXPECT_TRUE(service.reopt_events().empty());
}

}  // namespace
}  // namespace dfp
