// Cardinality-driven plan rewriting (src/plan/rewrite.h) and the re-optimization bookkeeping
// around it (src/reopt/): join-spine reordering by observed build rows keeps results
// bit-identical through the payload-slot permutation; the semi-join reduction fires only past
// the measured blowup gate; illegal spines (probe keys off a lower join's payload) are left
// alone; the literal-slot permutation recovered by sentinel rebinding maps candidate slots back
// to submission slots (duplicating across a cloned reduction build); and the CardStore's EWMAs,
// divergence ratios, and age-out behave as specified.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/plan/rewrite.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/tiering/literals.h"
#include "src/tpch/datagen.h"

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

// Scan(lineitem) |>< supplier-filter (bottom) |>< part-filter (top): a two-join spine with a
// payload column per join, both probe-keyed on the base stream. The filters carry literals so
// the same plan drives the permutation-recovery tests.
PhysicalOpPtr TwoJoinSpine(Database& db, int64_t supplier_bound, int64_t part_bound) {
  PlanBuilder supplier = PlanBuilder::Scan(db.table("supplier"));
  supplier.FilterBy(MakeBinary(BinOp::kLt, supplier.Col("s_suppkey"),
                               MakeLiteral(ColumnType::kInt64, supplier_bound)));
  PlanBuilder part = PlanBuilder::Scan(db.table("part"));
  part.FilterBy(MakeBinary(BinOp::kLt, part.Col("p_partkey"),
                           MakeLiteral(ColumnType::kInt64, part_bound)));
  PlanBuilder plan = PlanBuilder::Scan(db.table("lineitem"));
  plan.JoinWith(std::move(supplier), {"l_suppkey"}, {"s_suppkey"}, {"s_acctbal"});
  plan.JoinWith(std::move(part), {"l_partkey"}, {"p_partkey"}, {"p_retailprice"});
  return plan.Build();
}

// The (unique) filter op over the named table's scan.
PhysicalOp* FindFilterOver(PhysicalOp& root, const std::string& first_column) {
  for (PhysicalOp* op : PlanOperators(root)) {
    if (op->kind == OpKind::kFilter && !op->children.empty() &&
        !op->child(0)->output.empty() && op->child(0)->output[0].name == first_column) {
      return op;
    }
  }
  return nullptr;
}

Result ExecutePlan(Database& db, const PhysicalOp& plan, const std::string& name) {
  QueryEngine engine(&db);
  CompiledQuery compiled = engine.Compile(ClonePlan(plan), nullptr, name);
  return engine.Execute(compiled);
}

TEST(ReoptRewrite, EstimatedAndInjectedCardinalitiesRoundTrip) {
  Database& db = *TpchDb();
  PhysicalOpPtr plan = TwoJoinSpine(db, 100, 2000);
  CardinalityMap estimates = EstimatedCardinalities(*plan);
  // Finalized default estimates mirror the bounds, for every operator in the tree.
  for (PhysicalOp* op : PlanOperators(*plan)) {
    ASSERT_TRUE(estimates.count(op->id));
    EXPECT_EQ(estimates[op->id], op->bound_rows) << "op " << op->id;
  }
  PhysicalOp* part_filter = FindFilterOver(*plan, "p_partkey");
  ASSERT_NE(part_filter, nullptr);
  CardinalityMap observed;
  observed[part_filter->id] = 37;
  observed[plan->id] = 0;  // Zero observations are clamped so FinalizePlan cannot refill them.
  InjectCardinalities(*plan, observed);
  EXPECT_EQ(part_filter->estimated_rows, 37.0);
  EXPECT_EQ(plan->estimated_rows, 1.0);
}

TEST(ReoptRewrite, ReorderBySmallestObservedBuildKeepsResultsBitIdentical) {
  Database& db = *TpchDb();
  // Estimates rank supplier (100) under part (2000); the measurements disagree: the part
  // filter actually passes 50 rows. The rewrite must hoist the part join to the bottom.
  PhysicalOpPtr original = TwoJoinSpine(db, 100, 50);
  PhysicalOp* part_filter = FindFilterOver(*original, "p_partkey");
  ASSERT_NE(part_filter, nullptr);
  CardinalityMap observed;
  observed[part_filter->id] = 50;

  ReoptRewrite rewrite = ReoptimizePlan(*original, observed);
  ASSERT_TRUE(rewrite.changed);
  EXPECT_TRUE(rewrite.reordered);
  EXPECT_FALSE(rewrite.semi_join);
  EXPECT_EQ(rewrite.description, "reorder 1,0");

  // The payload columns moved with their joins, so a restore projection must put the output
  // schema back; with it in place the candidate's rows are bit-identical in probe order
  // (both join keys are unique, so output order is the filtered base order on both sides).
  bool restored = false;
  for (PhysicalOp* op : PlanOperators(*rewrite.plan)) {
    restored |= op->label == "Map reopt-restore";
  }
  EXPECT_TRUE(restored);
  const Result before = ExecutePlan(db, *original, "reorder_before");
  const Result after = ExecutePlan(db, *rewrite.plan, "reorder_after");
  EXPECT_GT(before.row_count(), 0u);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(before, after, true, &diff)) << diff;
}

TEST(ReoptRewrite, MeasurementsAgreeingWithPlanChangeNothing) {
  Database& db = *TpchDb();
  PhysicalOpPtr original = TwoJoinSpine(db, 100, 2000);
  PhysicalOp* part_filter = FindFilterOver(*original, "p_partkey");
  ASSERT_NE(part_filter, nullptr);
  CardinalityMap observed;
  observed[part_filter->id] = 2000;  // Exactly the estimate: the order stands.
  ReoptRewrite rewrite = ReoptimizePlan(*original, observed);
  EXPECT_FALSE(rewrite.changed);
  EXPECT_EQ(rewrite.plan, nullptr);
}

TEST(ReoptRewrite, PessimizeRewritesToWorstOrder) {
  Database& db = *TpchDb();
  // Original order already matches the measurements (part 50 at the bottom); pessimize must
  // still produce a candidate — the deliberately worst one — for the guard tests to revert.
  PhysicalOpPtr original = TwoJoinSpine(db, 100, 50);
  PhysicalOp* part_filter = FindFilterOver(*original, "p_partkey");
  PhysicalOp* supplier_filter = FindFilterOver(*original, "s_suppkey");
  ASSERT_NE(part_filter, nullptr);
  ASSERT_NE(supplier_filter, nullptr);
  CardinalityMap observed;
  observed[part_filter->id] = 50;
  observed[supplier_filter->id] = 100;

  ReoptRewrite best = ReoptimizePlan(*original, observed);
  ASSERT_TRUE(best.changed);  // Part join moves down...

  ReoptRewriteOptions pessimize;
  pessimize.pessimize = true;
  PhysicalOpPtr rebest = ClonePlan(*best.plan);
  CardinalityMap observed_best = observed;  // Fresh ids after finalize: re-derive.
  observed_best.clear();
  observed_best[FindFilterOver(*rebest, "p_partkey")->id] = 50;
  observed_best[FindFilterOver(*rebest, "s_suppkey")->id] = 100;
  ReoptRewrite worst = ReoptimizePlan(*rebest, observed_best, pessimize);
  ASSERT_TRUE(worst.changed);  // ...and pessimize moves it back up.
  EXPECT_TRUE(worst.reordered);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(ExecutePlan(db, *best.plan, "pess_before"),
                                 ExecutePlan(db, *worst.plan, "pess_after"), true, &diff))
      << diff;
}

TEST(ReoptRewrite, SemiJoinReductionGatedOnMeasuredBlowup) {
  Database& db = *TpchDb();
  // The part filter's hand-set estimate claims 10 rows; the measurement says 500 — a 50x
  // build-side blowup. With the reduction enabled the blown-up join is duplicated as a semi
  // filter directly above the base stream.
  PhysicalOpPtr original = TwoJoinSpine(db, 100, 500);
  PhysicalOp* part_filter = FindFilterOver(*original, "p_partkey");
  ASSERT_NE(part_filter, nullptr);
  part_filter->estimated_rows = 10;
  CardinalityMap observed;
  observed[part_filter->id] = 500;

  ReoptRewriteOptions options;
  options.semi_join_reduction = true;
  ReoptRewrite rewrite = ReoptimizePlan(*original, observed, options);
  ASSERT_TRUE(rewrite.changed);
  EXPECT_TRUE(rewrite.semi_join);
  EXPECT_NE(rewrite.description.find("semijoin"), std::string::npos);
  bool reduced = false;
  for (PhysicalOp* op : PlanOperators(*rewrite.plan)) {
    if (op->label.rfind("SemiJoinReduction", 0) == 0) {
      reduced = true;
      EXPECT_EQ(op->join_type, JoinType::kSemi);
    }
  }
  EXPECT_TRUE(reduced);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(ExecutePlan(db, *original, "semi_before"),
                                 ExecutePlan(db, *rewrite.plan, "semi_after"), true, &diff))
      << diff;

  // Below the blowup gate the reduction stays out (observed 500 vs estimate 250 is only 2x).
  PhysicalOpPtr mild = TwoJoinSpine(db, 100, 500);
  PhysicalOp* mild_filter = FindFilterOver(*mild, "p_partkey");
  mild_filter->estimated_rows = 250;
  CardinalityMap mild_observed;
  mild_observed[mild_filter->id] = 500;
  ReoptRewrite mild_rewrite = ReoptimizePlan(*mild, mild_observed, options);
  if (mild_rewrite.changed) {
    EXPECT_FALSE(mild_rewrite.semi_join);
  }
}

TEST(ReoptRewrite, ForcedOrderSpineIsLeftAlone) {
  Database& db = *TpchDb();
  // The customer join's probe key is the orders join's payload (o_custkey), so the order is
  // forced: no legal reorder exists and the rewrite must decline.
  PlanBuilder orders = PlanBuilder::Scan(db.table("orders"));
  PlanBuilder customer = PlanBuilder::Scan(db.table("customer"));
  PlanBuilder plan = PlanBuilder::Scan(db.table("lineitem"));
  plan.JoinWith(std::move(orders), {"l_orderkey"}, {"o_orderkey"}, {"o_custkey"});
  plan.JoinWith(std::move(customer), {"o_custkey"}, {"c_custkey"}, {"c_acctbal"});
  PhysicalOpPtr original = plan.Build();
  CardinalityMap observed;
  for (PhysicalOp* op : PlanOperators(*original)) {
    observed[op->id] = 1;  // Any measurement: the legality check must win regardless.
  }
  ReoptRewrite rewrite = ReoptimizePlan(*original, observed);
  EXPECT_FALSE(rewrite.changed);
}

TEST(ReoptRewrite, LiteralPermutationTracksReorderedWalkOrder) {
  Database& db = *TpchDb();
  // The extraction walk is pre-order, build side first: the original visits the part filter's
  // literal first (part join on top), the reordered candidate visits the supplier filter's
  // first — so the recovered permutation must swap the two submission slots.
  PhysicalOpPtr original = TwoJoinSpine(db, 100, 50);
  PhysicalOp* part_filter = FindFilterOver(*original, "p_partkey");
  ASSERT_NE(part_filter, nullptr);
  CardinalityMap observed;
  observed[part_filter->id] = 50;
  ASSERT_TRUE(ReoptimizePlan(*original, observed).changed);
  const std::vector<uint32_t> permutation = ReoptLiteralPermutation(*original, observed, {});
  EXPECT_EQ(permutation, (std::vector<uint32_t>{1, 0}));
}

TEST(ReoptRewrite, LiteralPermutationDuplicatesAcrossReductionClone) {
  Database& db = *TpchDb();
  // With the reduction inserted, the cloned build subtree duplicates the part filter's literal
  // site: the candidate extracts [part, supplier, part-clone] against the original's
  // [part, supplier], so slot 2 must map back to submission slot 0.
  PhysicalOpPtr original = TwoJoinSpine(db, 100, 500);
  PhysicalOp* part_filter = FindFilterOver(*original, "p_partkey");
  part_filter->estimated_rows = 10;
  CardinalityMap observed;
  observed[part_filter->id] = 500;
  ReoptRewriteOptions options;
  options.semi_join_reduction = true;
  ReoptRewrite rewrite = ReoptimizePlan(*original, observed, options);
  ASSERT_TRUE(rewrite.changed);
  ASSERT_TRUE(rewrite.semi_join);

  const size_t original_slots = ExtractLiterals(*original).bindings.size();
  const size_t candidate_slots = ExtractLiterals(*rewrite.plan).bindings.size();
  ASSERT_EQ(original_slots, 2u);
  ASSERT_EQ(candidate_slots, 3u);
  const std::vector<uint32_t> permutation =
      ReoptLiteralPermutation(*original, observed, options);
  ASSERT_EQ(permutation.size(), candidate_slots);
  EXPECT_EQ(permutation, (std::vector<uint32_t>{0, 1, 0}));
  for (uint32_t source : permutation) {
    EXPECT_LT(source, original_slots);
  }
  // Rebinding through the permutation must reproduce the candidate's own payloads.
  const PlanLiterals original_literals = ExtractLiterals(*original);
  const PlanLiterals candidate_literals = ExtractLiterals(*rewrite.plan);
  for (size_t j = 0; j < permutation.size(); ++j) {
    EXPECT_EQ(candidate_literals.bindings[j].value,
              original_literals.bindings[permutation[j]].value)
        << "slot " << j;
  }
}

TEST(ReoptCardStore, EwmaDivergenceAndAgeOut) {
  CardStore store;
  CardinalityMap observed;
  observed[3] = 100;
  CardinalityMap estimated;
  estimated[3] = 1000;
  store.Observe(0xabc, "q", observed, estimated);
  const PlanCards* cards = store.Find(0xabc);
  ASSERT_NE(cards, nullptr);
  EXPECT_EQ(cards->executions, 1u);
  EXPECT_EQ(cards->operators.at(3).observed_rows, 100u);  // First observation seeds the EWMA.
  EXPECT_EQ(store.MaxDivergencePct(0xabc), 1000u);        // 10x off, either direction.
  EXPECT_EQ(CardStore::DivergencePct(1000, 100), 1000u);
  EXPECT_EQ(CardStore::DivergencePct(100, 100), 100u);
  EXPECT_EQ(CardStore::DivergencePct(0, 0), 100u);  // Degenerate: clamped, never divides by 0.

  observed[3] = 500;
  store.Observe(0xabc, "q", observed, estimated);
  EXPECT_EQ(store.Find(0xabc)->operators.at(3).observed_rows, (3 * 100 + 500) / 4u);
  EXPECT_EQ(store.generation(), 2u);

  // A plan unobserved for more than kCardMaxAge generations ages out; the active plan survives.
  for (uint64_t i = 0; i < kCardMaxAge; ++i) {
    store.Observe(0xdef, "r", observed, estimated);
  }
  EXPECT_NE(store.Find(0xabc), nullptr);  // Exactly kCardMaxAge generations unobserved.
  store.Observe(0xdef, "r", observed, estimated);
  EXPECT_EQ(store.Find(0xabc), nullptr);
  ASSERT_NE(store.Find(0xdef), nullptr);
  const std::string rendered = RenderCardStore(store);
  EXPECT_NE(rendered.find("0000000000000def"), std::string::npos);
}

}  // namespace
}  // namespace dfp
