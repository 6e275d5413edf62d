// Differential suite for the re-optimization rewrite: 60 seeded random join-spine queries over
// the TPC-H-style schema, each rewritten under seeded random "observed" cardinalities (with
// random reduction/pessimize options) and executed through the compiled engine on both sides.
// The candidate must return bit-identical rows for every seed — the rewrite is pure plan
// surgery, so any divergence pinpoints a slot-permutation, schema-propagation, or reduction
// bug with a reproducible seed.
#include <gtest/gtest.h>

#include <set>
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

// The operators above a spine that the rewrite carries the spine's slot permutation through.
enum class Parent {
  kFilter,
  kMap,  // Non-projecting: appends a column.
  kSort,
  kLimit,
  kJoinBuild,  // The spine is a HashJoin's build side.
  // Above a Filter: a HashJoin directly over the spine would become the spine's top.
  kInnerJoinProbe,
  kSemiJoinProbe,
  kGroupJoinProbe,
  kGroupJoinBuild,  // Keyed by (l_orderkey, l_linenumber).
};
constexpr int kNumParents = 9;

// A random join spine over lineitem: 2-3 build sides drawn from {orders, part, supplier}, each
// optionally filtered on its key (the filters make the build cardinalities genuinely differ
// from the bounds), joins inner (with one payload column) or semi, in random order; optionally
// a base filter; and either a final aggregation (which parks the slot permutation below a
// schema-fixing operator instead of the result sink) or random `parents`, bottom-up. Each parent
// reads a payload column when there is one, since those are the slots a reorder moves.
PhysicalOpPtr RandomSpineQuery(Random& rng, Database& db, std::vector<Parent>* parents) {
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
  std::string moved = "l_quantity";
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
      moved = side.payload;
    } else {
      plan.JoinWith(std::move(build), {side.probe_key}, {side.key}, {}, JoinType::kSemi);
    }
  }
  if (rng.Chance(0.3)) {
    plan.GroupByKeys({"l_returnflag"},
                     NamedExprs("n", MakeAggregate(AggOp::kCountStar, nullptr), "s",
                                MakeAggregate(AggOp::kSum, plan.Col("l_extendedprice"))));
    return plan.Build();
  }

  // Drawn last, so the parents never change a seed's spine: Filter, Map, Sort and Limit each with
  // even odds, stacked in that order, then one of the joins on top.
  for (Parent parent : {Parent::kFilter, Parent::kMap, Parent::kSort, Parent::kLimit}) {
    if (rng.Chance(0.5)) {
      parents->push_back(parent);
    }
  }
  parents->push_back(static_cast<Parent>(
      rng.Uniform(static_cast<int64_t>(Parent::kJoinBuild), kNumParents - 1)));
  const auto moved_at_least_zero = [&](const PlanBuilder& input) {
    ExprPtr column = input.Col(moved);
    const ColumnType type = column->type;
    return MakeBinary(BinOp::kGe, std::move(column), MakeLiteral(type, 0));
  };
  const auto all_rows = [] { return MakeAggregate(AggOp::kCountStar, nullptr); };
  for (Parent parent : *parents) {
    switch (parent) {
      case Parent::kFilter:
        plan.FilterBy(moved_at_least_zero(plan));
        break;
      case Parent::kMap:
        plan.MapTo(NamedExprs("twice", MakeBinary(BinOp::kAdd, plan.Col(moved), plan.Col(moved))));
        break;
      case Parent::kSort:  // (l_orderkey, l_linenumber) is unique, so the order is total.
        plan.OrderBy({{moved, true}, {"l_orderkey", false}, {"l_linenumber", false}});
        break;
      case Parent::kLimit:
        plan.LimitTo(rng.Uniform(1, 300));
        break;
      case Parent::kJoinBuild: {
        PlanBuilder probe = PlanBuilder::Scan(db.table("orders"));
        probe.JoinWith(std::move(plan), {"o_orderkey"}, {"l_orderkey"}, {moved, "l_linenumber"});
        plan = std::move(probe);
        break;
      }
      case Parent::kInnerJoinProbe:
        plan.FilterBy(moved_at_least_zero(plan));
        plan.JoinWith(PlanBuilder::Scan(db.table("part")), {"l_partkey"}, {"p_partkey"},
                      {"p_size"});
        break;
      case Parent::kSemiJoinProbe: {
        plan.FilterBy(moved_at_least_zero(plan));
        PlanBuilder build = PlanBuilder::Scan(db.table("part"));
        build.FilterBy(MakeBinary(BinOp::kLt, build.Col("p_size"),
                                  MakeLiteral(ColumnType::kInt64, rng.Uniform(2, 50))));
        plan.JoinWith(std::move(build), {"l_partkey"}, {"p_partkey"}, {}, JoinType::kSemi);
        break;
      }
      case Parent::kGroupJoinProbe: {
        ExprPtr sum = MakeAggregate(AggOp::kSum, plan.Col(moved));
        plan.GroupJoinWith(PlanBuilder::Scan(db.table("orders")), {"l_orderkey"}, {"o_orderkey"},
                           {"o_orderkey"}, NamedExprs("n", all_rows(), "s", std::move(sum)));
        break;
      }
      case Parent::kGroupJoinBuild: {
        PlanBuilder probe = PlanBuilder::Scan(db.table("lineitem"));
        ExprPtr sum = MakeAggregate(AggOp::kSum, probe.Col("l_quantity"));
        probe.GroupJoinWith(std::move(plan), {"l_orderkey", "l_linenumber"},
                            {"l_orderkey", "l_linenumber"}, {"l_orderkey", "l_linenumber", moved},
                            NamedExprs("n", all_rows(), "q", std::move(sum)));
        plan = std::move(probe);
        break;
      }
    }
  }
  return plan.Build();
}

// One seed's query, its seeded fake measurements and the rewrite of it.
struct SeedCase {
  PhysicalOpPtr original;
  std::vector<Parent> parents;
  ReoptRewrite rewrite;
};

SeedCase RewriteSeed(uint64_t seed, Database& db) {
  SeedCase out;
  Random rng(seed);
  out.original = RandomSpineQuery(rng, db, &out.parents);

  // Seeded fake measurements: every operator gets a random observed row count, so the rewrite
  // sees arbitrary contradictions of the estimates (including blowups past the semi-join gate).
  CardinalityMap observed;
  for (PhysicalOp* op : PlanOperators(*out.original)) {
    observed[op->id] = static_cast<uint64_t>(rng.Uniform(1, 20000));
  }
  ReoptRewriteOptions options;
  options.pessimize = rng.Chance(0.25);  // The worst order must be wrong-order, not wrong-rows.
  options.semi_join_reduction = rng.Chance(0.5);
  out.rewrite = ReoptimizePlan(*out.original, observed, options);
  return out;
}

class ReoptDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReoptDifferentialTest, RewrittenPlansReturnBitIdenticalRows) {
  Database& db = *TpchDb();
  QueryEngine engine(&db);

  const SeedCase seed = RewriteSeed(GetParam(), db);
  const PhysicalOp& original = *seed.original;
  if (!seed.rewrite.changed) {
    // Forced orders and agreeing measurements legitimately decline; the seed still counts as
    // covered (the decline path must not corrupt the original).
    CompiledQuery compiled = engine.Compile(ClonePlan(original), nullptr, "reopt_diff_same");
    EXPECT_GE(engine.Execute(compiled).row_count(), 0u);
    return;
  }

  const bool grouped = original.child(0)->kind == OpKind::kGroupBy;
  CompiledQuery before = engine.Compile(ClonePlan(original), nullptr, "reopt_diff_before");
  CompiledQuery after = engine.Compile(ClonePlan(*seed.rewrite.plan), nullptr, "reopt_diff_after");
  const Result expected = engine.Execute(before);
  const Result actual = engine.Execute(after);
  std::string diff;
  // Join spines with unique build keys preserve probe order, so ungrouped results compare in
  // order; aggregation output hashes by group and compares unordered.
  EXPECT_TRUE(Result::Equivalent(expected, actual, !grouped, &diff))
      << "seed " << GetParam() << ": " << diff;
}

// The top of a plan's reorderable spine: its topmost HashJoin whose probe side is a HashJoin.
const PhysicalOp* SpineTop(const PhysicalOp& op) {
  if (op.kind == OpKind::kHashJoin && op.child(1)->kind == OpKind::kHashJoin) {
    return &op;
  }
  for (const PhysicalOpPtr& child : op.children) {
    if (const PhysicalOp* top = SpineTop(*child)) {
      return top;
    }
  }
  return nullptr;
}

std::vector<std::string> ColumnNames(const PhysicalOp& op) {
  std::vector<std::string> names;
  for (const OutputColumn& column : op.output) {
    names.push_back(column.name);
  }
  return names;
}

// The seeds below reorder a spine's output columns under every parent, so the rewrite carries a
// slot permutation through each kind of operator it handles, and the differential checks it.
TEST(ReoptDifferential, SeedsPermuteASpineUnderEveryParent) {
  std::set<Parent> covered;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const SeedCase rewritten = RewriteSeed(seed, *TpchDb());
    if (rewritten.rewrite.changed &&
        ColumnNames(*SpineTop(*rewritten.original)) !=
            ColumnNames(*SpineTop(*rewritten.rewrite.plan))) {
      covered.insert(rewritten.parents.begin(), rewritten.parents.end());
    }
  }
  EXPECT_EQ(covered.size(), static_cast<size_t>(kNumParents));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReoptDifferentialTest, ::testing::Range<uint64_t>(1, 61));

}  // namespace
}  // namespace dfp
