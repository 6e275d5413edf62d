#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/interp/interpreter.h"
#include "src/plan/builder.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/util/date.h"
#include "src/util/decimal.h"
#include "src/util/random.h"

namespace dfp {
namespace {

// Builds the paper's running-example schema (Figure 3): sales and products.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db(SmallConfig()), engine(&db) {
    Random rng(11);
    {
      TableBuilder products = db.CreateTableBuilder(
          {"products",
           {{"id", ColumnType::kInt64}, {"category", ColumnType::kString}}});
      for (int i = 0; i < 200; ++i) {
        products.BeginRow();
        products.SetI64(0, i);
        products.SetString(1, i % 4 == 0 ? "Chip" : (i % 4 == 1 ? "Board" : "Cable"));
      }
      db.AddTable(products.Finish());
    }
    {
      TableBuilder sales = db.CreateTableBuilder({"sales",
                                                  {{"id", ColumnType::kInt64},
                                                   {"price", ColumnType::kDecimal},
                                                   {"vat_factor", ColumnType::kDecimal},
                                                   {"prod_costs", ColumnType::kDecimal},
                                                   {"day", ColumnType::kDate}}});
      for (int i = 0; i < 3000; ++i) {
        sales.BeginRow();
        sales.SetI64(0, rng.Uniform(0, 199));
        sales.SetDecimal(1, rng.Uniform(100, 100000));
        sales.SetDecimal(2, rng.Uniform(100, 125));  // 1.00 .. 1.25
        sales.SetDecimal(3, rng.Uniform(100, 5000));
        sales.SetDate(4, DateFromYmd(1995, 1, 1) + static_cast<int32_t>(rng.Uniform(0, 365)));
      }
      db.AddTable(sales.Finish());
    }
  }

  static DatabaseConfig SmallConfig() {
    DatabaseConfig config;
    config.columns_bytes = 8ull << 20;
    config.strings_bytes = 1ull << 20;
    config.hashtables_bytes = 16ull << 20;
    config.output_bytes = 16ull << 20;
    return config;
  }

  void ExpectMatchesOracle(CompiledQuery& query, bool ordered) {
    Result compiled = engine.Execute(query);
    Result reference = InterpretPlan(db, *query.plan);
    std::string diff;
    EXPECT_TRUE(Result::Equivalent(compiled, reference, ordered, &diff))
        << diff << "\ncompiled:\n"
        << compiled.ToString(db.strings()) << "\nreference:\n"
        << reference.ToString(db.strings());
  }

  Database db;
  QueryEngine engine;
};

TEST_F(EngineTest, ScanFilterProject) {
  PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
  plan.FilterBy(MakeBinary(BinOp::kGt, plan.Col("price"), MakeLiteral(ColumnType::kDecimal,
                                                                      MakeDecimal(500, 0))));
  plan.Project({"id", "price"});
  CompiledQuery query = engine.Compile(plan.Build(), nullptr, "scan_filter");
  ExpectMatchesOracle(query, /*ordered=*/true);
}

TEST_F(EngineTest, MapArithmetic) {
  PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
  ExprPtr margin = MakeBinary(BinOp::kSub, plan.Col("price"), plan.Col("prod_costs"));
  plan.MapTo(NamedExprs("margin", std::move(margin)));
  plan.Project({"id", "margin"});
  CompiledQuery query = engine.Compile(plan.Build(), nullptr, "map_arith");
  ExpectMatchesOracle(query, /*ordered=*/true);
}

TEST_F(EngineTest, PaperExampleQuery) {
  // Select s.id, avg(s.price / s.vat_factor / s.prod_costs)
  // From sales s, products p Where s.id = p.id and p.category = 'Chip' Group By s.id.
  PlanBuilder products = PlanBuilder::Scan(db.table("products"));
  products.FilterBy(MakeBinary(
      BinOp::kEq, products.Col("category"),
      MakeLiteral(ColumnType::kString,
                  static_cast<int64_t>(db.strings().Intern("Chip")))));

  PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
  sales.JoinWith(std::move(products), {"id"}, {"id"}, {}, JoinType::kInner, "HashJoin p.id=s.id");
  ExprPtr ratio = MakeBinary(
      BinOp::kDiv,
      MakeBinary(BinOp::kDiv, sales.Col("price"), sales.Col("vat_factor")),
      sales.Col("prod_costs"));
  sales.GroupByKeys({"id"}, NamedExprs("avg_ratio", MakeAggregate(AggOp::kAvg, std::move(ratio))));
  CompiledQuery query = engine.Compile(sales.Build(), nullptr, "paper_example");
  Result compiled = engine.Execute(query);
  EXPECT_GT(compiled.row_count(), 0u);
  Result reference = InterpretPlan(db, *query.plan);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(compiled, reference, /*ordered=*/false, &diff)) << diff;
}

TEST_F(EngineTest, InnerJoinWithPayload) {
  PlanBuilder products = PlanBuilder::Scan(db.table("products"));
  PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
  sales.JoinWith(std::move(products), {"id"}, {"id"}, {"category"});
  sales.Project({"id", "price", "category"});
  CompiledQuery query = engine.Compile(sales.Build(), nullptr, "join_payload");
  ExpectMatchesOracle(query, /*ordered=*/false);
}

TEST_F(EngineTest, SemiAndAntiJoin) {
  {
    PlanBuilder chips = PlanBuilder::Scan(db.table("products"));
    chips.FilterBy(MakeBinary(
        BinOp::kEq, chips.Col("category"),
        MakeLiteral(ColumnType::kString,
                    static_cast<int64_t>(db.strings().Intern("Chip")))));
    PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
    sales.JoinWith(std::move(chips), {"id"}, {"id"}, {}, JoinType::kSemi);
    CompiledQuery query = engine.Compile(sales.Build(), nullptr, "semi");
    ExpectMatchesOracle(query, /*ordered=*/false);
  }
  {
    PlanBuilder chips = PlanBuilder::Scan(db.table("products"));
    chips.FilterBy(MakeBinary(
        BinOp::kEq, chips.Col("category"),
        MakeLiteral(ColumnType::kString,
                    static_cast<int64_t>(db.strings().Intern("Chip")))));
    PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
    sales.JoinWith(std::move(chips), {"id"}, {"id"}, {}, JoinType::kAnti);
    CompiledQuery query = engine.Compile(sales.Build(), nullptr, "anti");
    ExpectMatchesOracle(query, /*ordered=*/false);
  }
}

TEST_F(EngineTest, GroupByAggregates) {
  PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
  plan.GroupByKeys(
      {"id"},
      NamedExprs("n", MakeAggregate(AggOp::kCountStar, nullptr),
                 "total", MakeAggregate(AggOp::kSum, plan.Col("price")),
                 "cheapest", MakeAggregate(AggOp::kMin, plan.Col("price")),
                 "priciest", MakeAggregate(AggOp::kMax, plan.Col("price")),
                 "avg_costs", MakeAggregate(AggOp::kAvg, plan.Col("prod_costs"))));
  CompiledQuery query = engine.Compile(plan.Build(), nullptr, "groupby");
  ExpectMatchesOracle(query, /*ordered=*/false);
}

TEST_F(EngineTest, SortWithLimitTopK) {
  PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
  plan.Project({"id", "price", "day"});
  plan.OrderBy({{"price", true}, {"id", false}}, /*limit=*/25);
  CompiledQuery query = engine.Compile(plan.Build(), nullptr, "topk");
  ExpectMatchesOracle(query, /*ordered=*/true);
}

TEST_F(EngineTest, StandaloneLimit) {
  PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
  plan.Project({"id"});
  plan.LimitTo(10);
  CompiledQuery query = engine.Compile(plan.Build(), nullptr, "limit");
  Result compiled = engine.Execute(query);
  EXPECT_EQ(compiled.row_count(), 10u);
}

TEST_F(EngineTest, GroupJoinMatchesGroupByPlusJoin) {
  // GroupJoin(products, sales): per product, count and sum of sales.
  PlanBuilder products = PlanBuilder::Scan(db.table("products"));
  PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
  sales.GroupJoinWith(std::move(products), {"id"}, {"id"}, {"id", "category"},
                      NamedExprs("n", MakeAggregate(AggOp::kCountStar, nullptr),
                                 "total", MakeAggregate(AggOp::kSum, sales.Col("price"))));
  CompiledQuery query = engine.Compile(sales.Build(), nullptr, "groupjoin");
  ExpectMatchesOracle(query, /*ordered=*/false);
}

TEST_F(EngineTest, CaseAndInListAndLike) {
  PlanBuilder plan = PlanBuilder::Scan(db.table("products"));
  ExprPtr is_chip = MakeLike(plan.Col("category"), "Chi%");
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  whens.emplace_back(std::move(is_chip), MakeLiteral(ColumnType::kInt64, 1));
  ExprPtr tag = MakeCase(std::move(whens), MakeLiteral(ColumnType::kInt64, 0));
  plan.MapTo(NamedExprs("is_chip", std::move(tag)));
  plan.FilterBy(MakeInList(plan.Col("id"), {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}));
  plan.Project({"id", "is_chip"});
  CompiledQuery query = engine.Compile(plan.Build(), nullptr, "case_like");
  ExpectMatchesOracle(query, /*ordered=*/true);
}

TEST_F(EngineTest, DateFilters) {
  PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
  ExprPtr after = MakeBinary(BinOp::kGe, plan.Col("day"),
                             MakeLiteral(ColumnType::kDate, DateFromYmd(1995, 4, 1)));
  ExprPtr before = MakeBinary(BinOp::kLt, plan.Col("day"),
                              MakeLiteral(ColumnType::kDate, DateFromYmd(1995, 7, 1)));
  plan.FilterBy(MakeBinary(BinOp::kAnd, std::move(after), std::move(before)));
  plan.Project({"id", "day"});
  CompiledQuery query = engine.Compile(plan.Build(), nullptr, "dates");
  ExpectMatchesOracle(query, /*ordered=*/true);
}

TEST_F(EngineTest, UnoptimizedCodegenAgrees) {
  auto make_plan = [&]() {
    PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
    plan.GroupByKeys({"id"}, NamedExprs("total", MakeAggregate(AggOp::kSum, plan.Col("price"))));
    return plan.Build();
  };
  CodegenOptions no_opt;
  no_opt.optimize_ir = false;
  CompiledQuery unoptimized = engine.Compile(make_plan(), nullptr, "agg_noopt", no_opt);
  Result a = engine.Execute(unoptimized);
  CompiledQuery optimized = engine.Compile(make_plan(), nullptr, "agg_opt");
  Result b = engine.Execute(optimized);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(a, b, /*ordered=*/false, &diff)) << diff;
}

TEST_F(EngineTest, ExecutionIsDeterministic) {
  auto make_plan = [&]() {
    PlanBuilder plan = PlanBuilder::Scan(db.table("sales"));
    plan.GroupByKeys({"id"}, NamedExprs("total", MakeAggregate(AggOp::kSum, plan.Col("price"))));
    return plan.Build();
  };
  CompiledQuery q1 = engine.Compile(make_plan(), nullptr, "det1");
  engine.Execute(q1);
  uint64_t cycles1 = engine.last_cycles();
  CompiledQuery q2 = engine.Compile(make_plan(), nullptr, "det2");
  engine.Execute(q2);
  EXPECT_EQ(cycles1, engine.last_cycles());
}

TEST(QueryEngineMemory, FullRegionIsAnErrorAndTheEngineRunsOn) {
  DatabaseConfig config;
  config.hashtables_bytes = 64 * 1024;
  Database db(config);
  TpchOptions options;
  options.scale = 0.002;
  GenerateTpch(db, options);
  QueryEngine engine(&db);

  // The group-by's table, sized for every lineitem row, does not fit 64 KiB.
  CompiledQuery grouped = engine.Compile(
      PlanSql(db, "select l_orderkey, count(*) from lineitem group by l_orderkey"), nullptr,
      "grouped");
  try {
    engine.Execute(grouped);
    FAIL() << "the group-by must overflow the hashtables region";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("hashtables"), std::string::npos) << error.what();
  }

  // Execute resets the scratch regions first, so the next query runs normally.
  CompiledQuery count =
      engine.Compile(PlanSql(db, "select count(*) from region"), nullptr, "count");
  const Result result = engine.Execute(count);
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.at(0, 0), 5);
}

}  // namespace
}  // namespace dfp
