// Differential suite for the re-optimization rewrite: 60 seeded random join-spine queries over
// the TPC-H-style schema, each rewritten under seeded random "observed" cardinalities (with
// random reduction/pessimize options) and executed through the compiled engine on both sides.
// The candidate must return bit-identical rows for every seed — the rewrite is pure plan
// surgery, so any divergence pinpoints a slot-permutation, schema-propagation, or reduction
// bug with a reproducible seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/plan/rewrite.h"
#include "src/tpch/datagen.h"
#include "src/util/random.h"

namespace dfp {
namespace {

Database* TpchDb() {
  static Database* db = [] {
    auto* instance = new Database();
    TpchOptions options;
    options.scale = 0.005;
    GenerateTpch(*instance, options);
    return instance;
  }();
  return db;
}

// A random join spine over lineitem: 2-3 build sides drawn from {orders, part, supplier}, each
// optionally filtered on its key (the filters make the build cardinalities genuinely differ
// from the bounds), joins inner (with one payload column) or semi, in random order; optionally
// a base filter, and optionally a final aggregation (which parks the slot permutation below a
// schema-fixing operator instead of the result sink).
PhysicalOpPtr RandomSpineQuery(Random& rng, Database& db) {
  struct BuildSide {
    const char* table;
    const char* key;
    const char* probe_key;
    const char* payload;
    int64_t domain;
  };
  const BuildSide sides[] = {
      {"orders", "o_orderkey", "l_orderkey", "o_shippriority", 7500},
      {"part", "p_partkey", "l_partkey", "p_retailprice", 1000},
      {"supplier", "s_suppkey", "l_suppkey", "s_acctbal", 50},
  };
  std::vector<size_t> picked = {0, 1, 2};
  if (rng.Chance(0.4)) {
    picked.erase(picked.begin() + rng.Uniform(0, 2));
  }
  // Random join order (seeded shuffle by repeated draws).
  for (size_t i = picked.size(); i > 1; --i) {
    std::swap(picked[i - 1], picked[static_cast<size_t>(rng.Uniform(
                                 0, static_cast<int64_t>(i) - 1))]);
  }

  PlanBuilder plan = PlanBuilder::Scan(db.table("lineitem"));
  if (rng.Chance(0.5)) {
    plan.FilterBy(MakeBinary(BinOp::kLt, plan.Col("l_linenumber"),
                             MakeLiteral(ColumnType::kInt64, rng.Uniform(2, 6))));
  }
  for (size_t choice : picked) {
    const BuildSide& side = sides[choice];
    PlanBuilder build = PlanBuilder::Scan(db.table(side.table));
    if (rng.Chance(0.6)) {
      build.FilterBy(MakeBinary(BinOp::kLt, build.Col(side.key),
                                MakeLiteral(ColumnType::kInt64,
                                            rng.Uniform(1, side.domain))));
    }
    if (rng.Chance(0.75)) {
      plan.JoinWith(std::move(build), {side.probe_key}, {side.key}, {side.payload});
    } else {
      plan.JoinWith(std::move(build), {side.probe_key}, {side.key}, {}, JoinType::kSemi);
    }
  }
  if (rng.Chance(0.3)) {
    plan.GroupByKeys({"l_returnflag"},
                     NamedExprs("n", MakeAggregate(AggOp::kCountStar, nullptr), "s",
                                MakeAggregate(AggOp::kSum, plan.Col("l_extendedprice"))));
  }
  return plan.Build();
}

class ReoptDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReoptDifferentialTest, RewrittenPlansReturnBitIdenticalRows) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);

  Random rng(GetParam());
  PhysicalOpPtr original = RandomSpineQuery(rng, db);

  // Seeded fake measurements: every operator gets a random observed row count, so the rewrite
  // sees arbitrary contradictions of the estimates (including blowups past the semi-join gate).
  CardinalityMap observed;
  for (PhysicalOp* op : PlanOperators(*original)) {
    observed[op->id] = static_cast<uint64_t>(rng.Uniform(1, 20000));
  }
  ReoptRewriteOptions options;
  options.pessimize = rng.Chance(0.25);  // The worst order must be wrong-order, not wrong-rows.
  options.semi_join_reduction = rng.Chance(0.5);

  ReoptRewrite rewrite = ReoptimizePlan(*original, observed, options);
  if (!rewrite.changed) {
    // Forced orders and agreeing measurements legitimately decline; the seed still counts as
    // covered (the decline path must not corrupt the original).
    CompiledQuery compiled = engine.Compile(ClonePlan(*original), nullptr, "reopt_diff_same");
    EXPECT_GE(engine.Execute(compiled).row_count(), 0u);
    return;
  }

  const bool grouped = original->child(0)->kind == OpKind::kGroupBy;
  CompiledQuery before = engine.Compile(ClonePlan(*original), nullptr, "reopt_diff_before");
  CompiledQuery after = engine.Compile(ClonePlan(*rewrite.plan), nullptr, "reopt_diff_after");
  const Result expected = engine.Execute(before);
  const Result actual = engine.Execute(after);
  std::string diff;
  // Join spines with unique build keys preserve probe order, so ungrouped results compare in
  // order; aggregation output hashes by group and compares unordered.
  EXPECT_TRUE(Result::Equivalent(expected, actual, !grouped, &diff))
      << "seed " << GetParam() << ": " << diff;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReoptDifferentialTest, ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace dfp
