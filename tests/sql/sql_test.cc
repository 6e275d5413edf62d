#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/sql/binder.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"
#include "src/engine/query_engine.h"
#include "src/util/date.h"

namespace dfp {
namespace {

TEST(Lexer, TokenizesBasics) {
  std::vector<Token> tokens = Tokenize("select a, b1 from t where x >= 1.50 and y = 'it''s'");
  ASSERT_GE(tokens.size(), 12u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdent);
  // ">=" is one token.
  bool found_ge = false;
  bool found_decimal = false;
  bool found_string = false;
  for (const Token& token : tokens) {
    if (token.kind == TokenKind::kSymbol && token.text == ">=") {
      found_ge = true;
    }
    if (token.kind == TokenKind::kDecimal) {
      found_decimal = true;
      EXPECT_EQ(token.decimal_value, 150);
    }
    if (token.kind == TokenKind::kString) {
      found_string = true;
      EXPECT_EQ(token.text, "it's");
    }
  }
  EXPECT_TRUE(found_ge);
  EXPECT_TRUE(found_decimal);
  EXPECT_TRUE(found_string);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(Lexer, KeywordsAreCaseInsensitive) {
  std::vector<Token> tokens = Tokenize("SELECT X FROM T");
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "select");
  EXPECT_EQ(tokens[1].text, "x");
}

TEST(Lexer, RejectsUnterminatedString) {
  EXPECT_THROW(Tokenize("select 'oops"), Error);
  EXPECT_THROW(Tokenize("select #"), Error);
}

TEST(Lexer, NumericLiteralsOutOfRangeAreErrors) {
  // Past int64, and a decimal whose scaled value (x100) is past int64: a dfp::Error naming
  // the literal, never an uncaught std::out_of_range or a signed overflow.
  EXPECT_THROW(Tokenize("select 99999999999999999999999 from lineitem limit 1"), Error);
  EXPECT_THROW(Tokenize("select 99999999999999999.5"), Error);
  EXPECT_THROW(Tokenize("select 9223372036854775808"), Error);
  // Decimals are scale 2: a nonzero digit past the second fraction digit is refused rather than
  // truncated away, with an error that names the literal.
  EXPECT_THROW(Tokenize("select 1.999 from lineitem limit 1"), Error);
  EXPECT_THROW(Tokenize("select 0.001"), Error);
  EXPECT_THROW(Tokenize("select 92233720368547758.0700000001"), Error);
  try {
    Tokenize("select 2.125");
    ADD_FAILURE() << "2.125 lexed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'2.125'"), std::string::npos) << e.what();
  }
  // The extremes that fit still lex, and trailing zero fraction digits drop exactly.
  std::vector<Token> tokens =
      Tokenize("select 9223372036854775807, 92233720368547758.07, 1.5, 1.990, 3.0000");
  ASSERT_EQ(tokens[1].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[1].int_value, INT64_MAX);
  ASSERT_EQ(tokens[3].kind, TokenKind::kDecimal);
  EXPECT_EQ(tokens[3].decimal_value, INT64_MAX);
  EXPECT_EQ(tokens[5].decimal_value, 150);
  EXPECT_EQ(tokens[7].decimal_value, 199);
  EXPECT_EQ(tokens[9].decimal_value, 300);
}

TEST(Parser, ParsesFullSelect) {
  SelectStatement stmt = ParseSelect(
      "select a.x, sum(b.y) as total from t1 a, t2 b "
      "where a.id = b.id and a.x > 5 group by a.x having sum(b.y) > 10 "
      "order by total desc limit 7;");
  EXPECT_EQ(stmt.select_list.size(), 2u);
  EXPECT_EQ(stmt.select_list[1].alias, "total");
  EXPECT_EQ(stmt.from.size(), 2u);
  EXPECT_EQ(stmt.from[0].alias, "a");
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.group_by.size(), 1u);
  ASSERT_NE(stmt.having, nullptr);
  EXPECT_EQ(stmt.order_by.size(), 1u);
  EXPECT_TRUE(stmt.order_by[0].descending);
  EXPECT_EQ(stmt.limit, 7);
}

TEST(Parser, OperatorPrecedence) {
  SelectStatement stmt = ParseSelect("select a + b * c from t");
  const SqlExpr& expr = *stmt.select_list[0].expr;
  ASSERT_EQ(expr.kind, SqlExprKind::kBinary);
  EXPECT_EQ(expr.bin, SqlBinOp::kAdd);
  EXPECT_EQ(expr.right->bin, SqlBinOp::kMul);
}

TEST(Parser, AndBindsTighterThanOr) {
  SelectStatement stmt = ParseSelect("select 1 from t where a = 1 or b = 2 and c = 3");
  const SqlExpr& where = *stmt.where;
  EXPECT_EQ(where.bin, SqlBinOp::kOr);
  EXPECT_EQ(where.right->bin, SqlBinOp::kAnd);
}

TEST(Parser, BetweenLikeInCase) {
  SelectStatement stmt = ParseSelect(
      "select case when x between 1 and 2 then 'low' else 'high' end "
      "from t where name like 'ab%' and k in (1, 2, 3)");
  EXPECT_EQ(stmt.select_list[0].expr->kind, SqlExprKind::kCase);
  const SqlExpr& where = *stmt.where;
  EXPECT_EQ(where.bin, SqlBinOp::kAnd);
  EXPECT_EQ(where.left->kind, SqlExprKind::kLike);
  EXPECT_EQ(where.right->kind, SqlExprKind::kInList);
  EXPECT_EQ(where.right->list.size(), 3u);
}

TEST(Parser, DateLiteral) {
  SelectStatement stmt = ParseSelect("select 1 from t where d < date '1995-04-01'");
  EXPECT_EQ(stmt.where->right->kind, SqlExprKind::kDateLit);
  EXPECT_EQ(stmt.where->right->int_value, ParseDate("1995-04-01"));
}

TEST(Parser, CountStar) {
  SelectStatement stmt = ParseSelect("select count(*) from t");
  EXPECT_EQ(stmt.select_list[0].expr->kind, SqlExprKind::kAggregate);
  EXPECT_EQ(stmt.select_list[0].expr->agg, SqlAgg::kCountStar);
}

TEST(Parser, Errors) {
  EXPECT_THROW(ParseSelect("from t"), Error);
  EXPECT_THROW(ParseSelect("select"), Error);
  EXPECT_THROW(ParseSelect("select a from"), Error);
  EXPECT_THROW(ParseSelect("select a from t where"), Error);
  EXPECT_THROW(ParseSelect("select a from t where 1 = "), Error);
  EXPECT_THROW(ParseSelect("select case else 1 end from t"), Error);
}

// `levels` copies of `open` around `core`, each closed by `close`.
std::string Nested(const std::string& open, const std::string& core, const std::string& close,
                   uint32_t levels) {
  std::string sql = "select ";
  for (uint32_t i = 0; i < levels; ++i) {
    sql += open;
  }
  sql += core;
  for (uint32_t i = 0; i < levels; ++i) {
    sql += close;
  }
  return sql + " from lineitem limit 1";
}

// `operators` additions chained onto `head` (a left-deep tree of that height).
std::string Chain(const std::string& head, uint32_t operators) {
  std::string sql = head;
  for (uint32_t i = 0; i < operators; ++i) {
    sql += "+1";
  }
  return sql;
}

TEST(Parser, NestingPastTheLimitIsAnErrorNotAStackOverflow) {
  for (const uint32_t levels : {kMaxExprNesting + 1, 100'000u}) {
    try {
      ParseSelect(Nested("(", "l_orderkey", ")", levels));
      ADD_FAILURE() << levels << " nested parentheses parsed";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("deeper than 1000 levels"), std::string::npos)
          << e.what();
    }
  }
  const uint32_t over = kMaxExprNesting + 1;
  EXPECT_THROW(ParseSelect(Nested("- ", "l_orderkey", "", over)), Error);
  EXPECT_THROW(ParseSelect(Nested("not ", "l_orderkey = 1", "", over)), Error);
  EXPECT_THROW(ParseSelect(Nested("year(", "l_shipdate", ")", over)), Error);
  EXPECT_THROW(ParseSelect(Nested("sum(", "l_quantity", ")", over)), Error);
  EXPECT_THROW(ParseSelect(Nested("case when 1 = 1 then ", "1", " else 0 end", over)), Error);
  // Exactly the limit parses, whichever constructs make it up; one level more does not.
  EXPECT_NO_THROW(ParseSelect(Nested("(", "l_orderkey", ")", kMaxExprNesting)));
  EXPECT_NO_THROW(ParseSelect(Nested("- ", "l_orderkey", "", kMaxExprNesting)));
  // The comparison under the NOTs is a level of its own.
  EXPECT_NO_THROW(ParseSelect(Nested("not ", "l_orderkey = 1", "", kMaxExprNesting - 1)));
  EXPECT_THROW(ParseSelect(Nested("not ", "l_orderkey = 1", "", kMaxExprNesting)), Error);
  EXPECT_NO_THROW(ParseSelect(Nested("(- ", "l_orderkey", ")", kMaxExprNesting / 2)));
  EXPECT_THROW(ParseSelect(Nested("(- ", "(l_orderkey)", ")", kMaxExprNesting / 2)), Error);
  // Binary-operator chains loop instead of nesting, but each operator is a level of the tree
  // every later pass recurses over, so the chain is bounded too...
  const std::string from = " from lineitem limit 1";
  EXPECT_NO_THROW(ParseSelect(Chain("select l_orderkey", kMaxExprNesting) + from));
  for (const uint32_t operators : {kMaxExprNesting + 1, 20'000u}) {
    EXPECT_THROW(ParseSelect(Chain("select l_orderkey", operators) + from), Error) << operators;
  }
  // ...also where parentheses cut it into stretches that each stay below the limit.
  const uint32_t half = kMaxExprNesting / 2 + 1;
  EXPECT_THROW(ParseSelect(Chain(Chain("select (l_orderkey", half) + ")", half) + from), Error);
  EXPECT_NO_THROW(ParseSelect(Chain(Chain("select (l_orderkey", half) + ")", half - 2) + from));
}

class BinderTest : public ::testing::Test {
 protected:
  BinderTest() {
    {
      TableBuilder t = db.CreateTableBuilder({"items",
                                              {{"id", ColumnType::kInt64},
                                               {"price", ColumnType::kDecimal},
                                               {"name", ColumnType::kString}}});
      for (int i = 0; i < 50; ++i) {
        t.BeginRow();
        t.SetI64(0, i);
        t.SetDecimal(1, i * 100);
        t.SetString(2, i % 2 == 0 ? "even" : "odd");
      }
      db.AddTable(t.Finish());
    }
    {
      TableBuilder t = db.CreateTableBuilder(
          {"orders2", {{"id", ColumnType::kInt64}, {"item_id", ColumnType::kInt64}}});
      for (int i = 0; i < 100; ++i) {
        t.BeginRow();
        t.SetI64(0, i);
        t.SetI64(1, i % 50);
      }
      db.AddTable(t.Finish());
    }
  }

  Database db;
};

TEST_F(BinderTest, BindsSimpleSelect) {
  PhysicalOpPtr plan = PlanSql(db, "select id, price from items where price > 10.00");
  EXPECT_EQ(plan->kind, OpKind::kResultSink);
  EXPECT_EQ(plan->output.size(), 2u);
  EXPECT_EQ(plan->output[0].name, "id");
  EXPECT_EQ(plan->output[1].type, ColumnType::kDecimal);
}

TEST_F(BinderTest, BindsJoinWithQualifiedNames) {
  PhysicalOpPtr plan = PlanSql(
      db, "select o.id, i.name from orders2 o, items i where o.item_id = i.id");
  EXPECT_EQ(plan->output.size(), 2u);
  // There must be a hash join in the plan.
  bool has_join = false;
  for (PhysicalOp* op : PlanOperators(*plan)) {
    if (op->kind == OpKind::kHashJoin) {
      has_join = true;
    }
  }
  EXPECT_TRUE(has_join);
}

TEST_F(BinderTest, GlobalAggregateWithoutGroupBy) {
  PhysicalOpPtr plan = PlanSql(db, "select sum(price), count(*) from items");
  bool has_groupby = false;
  for (PhysicalOp* op : PlanOperators(*plan)) {
    if (op->kind == OpKind::kGroupBy) {
      has_groupby = true;
      EXPECT_TRUE(op->group_keys.empty());
    }
  }
  EXPECT_TRUE(has_groupby);
}

TEST_F(BinderTest, ErrorsOnBadInput) {
  EXPECT_THROW(PlanSql(db, "select x from items"), Error);           // Unknown column.
  EXPECT_THROW(PlanSql(db, "select id from nosuch"), Error);         // Unknown table.
  EXPECT_THROW(PlanSql(db, "select i.id from items i, orders2 o"), Error);  // Cross join.
  EXPECT_THROW(PlanSql(db, "select id from items i, items i"), Error);      // Duplicate alias.
  EXPECT_THROW(PlanSql(db, "select id from items where sum(price) > 1"), Error);
  EXPECT_THROW(PlanSql(db, "select id from items having count(*) > 1 "), Error);
  // Ambiguous unqualified column across two tables.
  EXPECT_THROW(
      PlanSql(db, "select id from orders2 o, items i where o.item_id = i.id"), Error);
}

TEST_F(BinderTest, FilterPushdownReachesScans) {
  PhysicalOpPtr plan = PlanSql(db,
                               "select o.id from orders2 o, items i "
                               "where o.item_id = i.id and i.price > 10.00 and o.id < 90");
  // Both single-table predicates sit below the join.
  std::vector<PhysicalOp*> ops = PlanOperators(*plan);
  int filters_below_join = 0;
  bool in_join_subtree = false;
  for (PhysicalOp* op : ops) {
    if (op->kind == OpKind::kHashJoin) {
      in_join_subtree = true;
    }
    if (op->kind == OpKind::kFilter && in_join_subtree) {
      ++filters_below_join;
    }
  }
  EXPECT_EQ(filters_below_join, 2);
}

TEST(Parser, YearAndDistinct) {
  SelectStatement stmt = ParseSelect("select distinct year(d) from t group by year(d)");
  EXPECT_TRUE(stmt.distinct);
  EXPECT_EQ(stmt.select_list[0].expr->kind, SqlExprKind::kYear);
  EXPECT_EQ(stmt.group_by[0]->kind, SqlExprKind::kYear);
}

TEST_F(BinderTest, YearExtraction) {
  // Add a dated table for the year() tests.
  TableBuilder t = db.CreateTableBuilder(
      {"events", {{"id", ColumnType::kInt64}, {"d", ColumnType::kDate}}});
  for (int i = 0; i < 40; ++i) {
    t.BeginRow();
    t.SetI64(0, i);
    t.SetDate(1, DateFromYmd(1992 + i % 5, 1 + i % 12, 1 + i % 28));
  }
  db.AddTable(t.Finish());
  QueryEngine engine(&db);
  CompiledQuery query = engine.Compile(
      PlanSql(db, "select year(d) as y, count(*) as n from events group by year(d) order by y"),
      nullptr, "years");
  Result result = engine.Execute(query);
  ASSERT_EQ(result.row_count(), 5u);
  EXPECT_EQ(result.at(0, 0), 1992);
  EXPECT_EQ(result.at(4, 0), 1996);
  int64_t total = 0;
  for (size_t r = 0; r < result.row_count(); ++r) {
    total += result.at(r, 1);
  }
  EXPECT_EQ(total, 40);
  // year() of a non-date errors.
  EXPECT_THROW(PlanSql(db, "select year(id) from events"), Error);
}

TEST_F(BinderTest, DistinctDeduplicates) {
  QueryEngine engine(&db);
  CompiledQuery query = engine.Compile(
      PlanSql(db, "select distinct name from items order by name"), nullptr, "distinct");
  Result result = engine.Execute(query);
  ASSERT_EQ(result.row_count(), 2u);
  EXPECT_EQ(result.CellToString(db.strings(), 0, 0), "even");
  EXPECT_EQ(result.CellToString(db.strings(), 1, 0), "odd");
}

TEST_F(BinderTest, DeepestOperatorChainRunsAndALongerOneIsAnError) {
  // The deepest chain the front end accepts plans, compiles and runs; a longer one is refused
  // before any pass recurses over it.
  QueryEngine engine(&db);
  const std::string where = " from items where id = 7";
  Result result = engine.Run(PlanSql(db, Chain("select id", kMaxExprNesting) + where));
  ASSERT_EQ(result.row_count(), 1u);
  EXPECT_EQ(result.at(0, 0), 7 + static_cast<int64_t>(kMaxExprNesting));
  for (const uint32_t operators : {kMaxExprNesting + 1, 20'000u}) {
    EXPECT_THROW(PlanSql(db, Chain("select id", operators) + where), Error) << operators;
  }
}

TEST_F(BinderTest, GroupByExpressionMatchedInSelectAndOrder) {
  QueryEngine engine(&db);
  // Group by a computed expression; select and order refer to it structurally.
  CompiledQuery query = engine.Compile(
      PlanSql(db, "select id % 5 as bucket, count(*) as n from items "
                  "group by id % 5 order by bucket"),
      nullptr, "expr_keys");
  Result result = engine.Execute(query);
  ASSERT_EQ(result.row_count(), 5u);
  for (size_t r = 0; r < result.row_count(); ++r) {
    EXPECT_EQ(result.at(r, 0), static_cast<int64_t>(r));
    EXPECT_EQ(result.at(r, 1), 10);
  }
}

}  // namespace
}  // namespace dfp
