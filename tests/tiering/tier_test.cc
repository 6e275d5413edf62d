// Tier ladder end-to-end: cold compiles land on the baseline tier, the controller promotes a
// hot fingerprint once its critical-path work crosses break-even, the background recompilation
// swaps in atomically with bit-identical results, literal variants patch instead of compiling,
// admission defers while a patch target is busy, and the tier timeline / sample-stream events
// account for every sample and transition.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/profiling/serialize.h"
#include "src/service/query_service.h"
#include "src/sql/binder.h"
#include "src/tiering/report.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

ServiceConfig TieredConfig() {
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

std::unique_ptr<Database> MakeDb(const ServiceConfig& config) {
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  auto db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(*db, options);
  return db;
}

std::string Q6Variant(int lo, int hi, int quantity) {
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "select sum(l_extendedprice * l_discount) as revenue from lineitem "
                "where l_discount between 0.0%d and 0.0%d and l_quantity < %d",
                lo, hi, quantity);
  return buffer;
}

// Submits one query and drains; returns its ticket id.
TicketId RunOne(QueryService& service, Database& db, const std::string& sql,
                const char* name) {
  const TicketId id = service.Submit(PlanSql(db, sql), name);
  service.Drain();
  return id;
}

TEST(TierLadderTest, ColdCompilesStartOnBaselineTier) {
  ServiceConfig config = TieredConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId id = RunOne(service, *db, Q6Variant(5, 7, 24), "q6");
  EXPECT_EQ(service.ticket(id).tier, PlanTier::kBaseline);
  EXPECT_FALSE(service.ticket(id).cache_hit);
}

TEST(TierLadderTest, LiteralVariantsPatchInsteadOfCompiling) {
  ServiceConfig config = TieredConfig();
  // Park the tier controller far from break-even so a background swap cannot change the
  // resident code bytes mid-test; this test isolates the patching path.
  config.tiering.break_even_ratio = 1e9;
  auto db = MakeDb(config);
  QueryService service(*db, config);
  RunOne(service, *db, Q6Variant(5, 7, 24), "q6");
  const uint64_t resident = service.plan_cache().stats().resident_code_bytes;

  const TicketId warm = RunOne(service, *db, Q6Variant(2, 8, 30), "q6");
  EXPECT_TRUE(service.ticket(warm).cache_hit);
  EXPECT_GT(service.ticket(warm).patched_sites, 0u);
  EXPECT_EQ(service.plan_cache().stats().resident_code_bytes, resident);
  EXPECT_EQ(service.plan_cache().stats().patched_hits, 1u);

  // The patched execution must match a cold compile of the same variant in a fresh service.
  auto db2 = MakeDb(config);
  QueryService cold(*db2, config);
  const TicketId reference = RunOne(cold, *db2, Q6Variant(2, 8, 30), "q6");
  EXPECT_EQ(service.ticket(warm).result.rows(), cold.ticket(reference).result.rows());
}

TEST(TierLadderTest, BreakEvenPromotionSwapsInBackgroundWithIdenticalResults) {
  ServiceConfig config = TieredConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  const std::string sql = Q6Variant(5, 7, 24);
  const TicketId first = RunOne(service, *db, sql, "q6");
  const Result baseline_result = service.ticket(first).result;
  EXPECT_EQ(service.ticket(first).tier, PlanTier::kBaseline);

  int runs = 1;
  while (service.plan_cache().stats().tier_swaps == 0 && runs < 48) {
    RunOne(service, *db, sql, "q6");
    ++runs;
  }
  ASSERT_GE(service.plan_cache().stats().tier_swaps, 1u) << "never promoted after " << runs;
  EXPECT_EQ(service.pending_recompiles(), 0u);

  // The transition log records the decision and the swap, in causal order, against the
  // structure fingerprint.
  ASSERT_EQ(service.tier_controller().transitions().size(), 1u);
  const TierTransition& transition = service.tier_controller().transitions()[0];
  EXPECT_EQ(transition.fingerprint, service.ticket(first).fingerprint.structure);
  EXPECT_EQ(transition.name, "q6");
  EXPECT_EQ(transition.from, PlanTier::kBaseline);
  EXPECT_EQ(transition.to, PlanTier::kOptimized);
  EXPECT_GT(transition.decided_at_cycles, 0u);
  EXPECT_GE(transition.swapped_at_cycles, transition.decided_at_cycles);
  EXPECT_GE(transition.rollup_cycles, transition.threshold_cycles);

  // Post-swap execution runs the optimizing-tier code; results are bit-identical.
  const TicketId after = RunOne(service, *db, sql, "q6");
  EXPECT_EQ(service.ticket(after).tier, PlanTier::kOptimized);
  EXPECT_TRUE(service.ticket(after).cache_hit);
  EXPECT_EQ(service.ticket(after).result.rows(), baseline_result.rows());

  // The timeline totals count the one promotion and its swap.
  const TierTimelineTotals totals =
      SummarizeTierTimeline(service.windows(), service.tier_controller());
  EXPECT_EQ(totals.transitions, 1u);
  EXPECT_EQ(totals.swapped, 1u);
}

TEST(TierLadderTest, PromotionSwapsTheDictionaryOnlyForLaterTickets) {
  ServiceConfig config = TieredConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const std::string sql = Q6Variant(5, 7, 24);
  const TicketId first = RunOne(service, *db, sql, "q6");
  const std::shared_ptr<const CachedPlan> baseline = service.ticket(first).plan;
  std::ostringstream baseline_text;
  WriteDictionary(baseline->dictionary, baseline_text);

  std::vector<TicketId> before = {first};
  while (service.plan_cache().stats().tier_swaps == 0 && before.size() < 48) {
    before.push_back(RunOne(service, *db, sql, "q6"));
  }
  ASSERT_GE(service.plan_cache().stats().tier_swaps, 1u);
  const TicketId after = RunOne(service, *db, sql, "q6");
  const QueryTicket& later = service.ticket(after);
  ASSERT_NE(later.session, nullptr);
  EXPECT_EQ(later.tier, PlanTier::kOptimized);
  EXPECT_EQ(later.plan, service.plan_cache().Peek(later.fingerprint));
  EXPECT_NE(later.plan, baseline);
  EXPECT_EQ(&later.session->dictionary(), &later.plan->dictionary);

  // Every ticket admitted before the swap still holds, and writes, the baseline snapshot.
  for (const TicketId id : before) {
    const QueryTicket& ticket = service.ticket(id);
    ASSERT_NE(ticket.session, nullptr);
    EXPECT_EQ(ticket.plan, baseline);
    EXPECT_EQ(&ticket.session->dictionary(), &baseline->dictionary);
    std::ostringstream text;
    WriteDictionary(ticket.session->dictionary(), text);
    EXPECT_EQ(text.str(), baseline_text.str());
  }
}

TEST(TierLadderTest, ConcurrentVariantsDeferPatchUntilEntryDrains) {
  ServiceConfig config = TieredConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  // Warm the entry, then submit two different-literal variants back to back: the second needs a
  // patch while the first still runs, so admission defers until the entry drains. Both must
  // come back correct.
  RunOne(service, *db, Q6Variant(5, 7, 24), "q6");
  const TicketId a = service.Submit(PlanSql(*db, Q6Variant(1, 8, 40)), "q6");
  const TicketId b = service.Submit(PlanSql(*db, Q6Variant(3, 6, 12)), "q6");
  service.Drain();
  EXPECT_EQ(service.ticket(a).status, TicketStatus::kDone);
  EXPECT_EQ(service.ticket(b).status, TicketStatus::kDone);

  auto db2 = MakeDb(config);
  QueryService cold(*db2, config);
  const TicketId ra = RunOne(cold, *db2, Q6Variant(1, 8, 40), "q6");
  const TicketId rb = RunOne(cold, *db2, Q6Variant(3, 6, 12), "q6");
  EXPECT_EQ(service.ticket(a).result.rows(), cold.ticket(ra).result.rows());
  EXPECT_EQ(service.ticket(b).result.rows(), cold.ticket(rb).result.rows());
}

TEST(TierLadderTest, TimelineAttributesEverySampleToATier) {
  ServiceConfig config = TieredConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const std::string sql = Q6Variant(5, 7, 24);
  for (int i = 0; i < 10; ++i) {
    RunOne(service, *db, sql, "q6");
  }
  RunOne(service, *db, FindQuery("q1").sql, "q1");  // A second plan family in the windows.

  const TierTimelineTotals totals =
      SummarizeTierTimeline(service.windows(), service.tier_controller());
  EXPECT_GT(totals.samples, 0u);
  EXPECT_EQ(totals.samples, totals.baseline_samples + totals.optimized_samples);
  const std::string report =
      RenderTierTimeline(service.windows(), service.tier_controller());
  EXPECT_NE(report.find("q6"), std::string::npos);
  if (totals.transitions > 0) {
    EXPECT_NE(report.find("promote baseline -> optimized"), std::string::npos);
  }
}

TEST(TierLadderTest, TieredSamplesRoundTripTheirTier) {
  ServiceConfig config = TieredConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const std::string sql = Q6Variant(5, 7, 24);
  TicketId last = 0;
  for (int i = 0; i < 24 && service.plan_cache().stats().tier_swaps == 0; ++i) {
    last = RunOne(service, *db, sql, "q6");
  }
  ASSERT_GE(service.plan_cache().stats().tier_swaps, 1u);
  ASSERT_NE(service.ticket(last).session, nullptr);

  // Baseline-tier samples carry their tier through serialization.
  std::ostringstream out;
  WriteSamples(service.ticket(last).session->samples(), out);

  std::istringstream in(out.str());
  const std::vector<Sample> samples = ReadSamples(in);
  ASSERT_EQ(samples.size(), service.ticket(last).session->samples().size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].tier, service.ticket(last).session->samples()[i].tier);
  }
  for (const Sample& sample : samples) {
    EXPECT_EQ(sample.tier, static_cast<uint8_t>(PlanTier::kBaseline));
  }
}

TEST(TierControllerTest, CriticalPathEvidencePicksPromotionsByLatency) {
  TieringConfig tiering;
  tiering.enabled = true;
  tiering.break_even_ratio = 1.0;

  // A wide-but-slack plan: however many cycles it burns per execution, only 100 of them ever
  // sit on a query's critical path, so promotion holds until the path work itself crosses
  // break-even. The first kTierMinExecutions - 1 executions never promote, whatever the
  // evidence.
  static_assert(kTierMinExecutions == 2);
  TierController by_path(tiering);
  EXPECT_FALSE(by_path.Observe(0x1, "wide", /*critical_path_cycles=*/100, 5'000, 1));
  EXPECT_FALSE(by_path.Observe(0x1, "wide", /*critical_path_cycles=*/100, 5'000, 2));
  EXPECT_TRUE(by_path.Observe(0x1, "wide", /*critical_path_cycles=*/6'000, 5'000, 3));
  ASSERT_EQ(by_path.transitions().size(), 1u);
  EXPECT_EQ(by_path.transitions()[0].rollup_cycles, 6'000u);
}

TEST(TierLadderTest, TieringOffKeepsOptimizedTierAndNoEvents) {
  ServiceConfig config = TieredConfig();
  config.tiering.enabled = false;
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId id = RunOne(service, *db, Q6Variant(5, 7, 24), "q6");
  EXPECT_EQ(service.ticket(id).tier, PlanTier::kOptimized);
  EXPECT_EQ(service.ticket(id).patched_sites, 0u);
  EXPECT_TRUE(service.tier_controller().transitions().empty());
  // A different-literal resubmission is a structure hit but a cache miss (exact keying).
  const TicketId variant = RunOne(service, *db, Q6Variant(2, 8, 30), "q6");
  EXPECT_FALSE(service.ticket(variant).cache_hit);
}

}  // namespace
}  // namespace dfp
