// Abstract syntax tree of the SQL subset.
#ifndef DFP_SRC_SQL_AST_H_
#define DFP_SRC_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dfp {

enum class SqlExprKind : uint8_t {
  kColumn,      // [qualifier.]name
  kIntLit,
  kDecimalLit,
  kStringLit,
  kDateLit,
  kBinary,      // op in SqlBinOp
  kUnaryMinus,
  kNot,
  kAggregate,   // sum/count/avg/min/max; child may be null for count(*)
  kLike,
  kBetween,     // child between low and high
  kInList,
  kCase,
  kYear,  // year(date-expr)
};

enum class SqlBinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kRem, kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr,
};

enum class SqlAgg : uint8_t { kSum, kCount, kAvg, kMin, kMax, kCountStar };

struct SqlExpr;
using SqlExprPtr = std::unique_ptr<SqlExpr>;

struct SqlExpr {
  SqlExprKind kind = SqlExprKind::kIntLit;
  // kColumn.
  std::string qualifier;
  std::string column;
  // Literals.
  int64_t int_value = 0;      // Also scale-2 decimal payload and date days.
  std::string string_value;   // kStringLit / kLike pattern.
  // Composite.
  SqlBinOp bin = SqlBinOp::kAdd;
  SqlAgg agg = SqlAgg::kSum;
  SqlExprPtr left;
  SqlExprPtr right;
  SqlExprPtr third;  // BETWEEN upper bound.
  std::vector<SqlExprPtr> list;                         // IN list.
  std::vector<std::pair<SqlExprPtr, SqlExprPtr>> whens; // CASE.
  SqlExprPtr else_value;
  uint32_t height = 0;  // Levels below this node: 0 for a leaf (see kMaxExprNesting).
};

struct SqlSelectItem {
  SqlExprPtr expr;
  std::string alias;  // Empty: derive from the expression.
};

struct SqlTableRef {
  std::string table;
  std::string alias;  // Defaults to the table name.
};

struct SqlOrderItem {
  SqlExprPtr expr;
  bool descending = false;
};

struct SelectStatement {
  bool distinct = false;
  std::vector<SqlSelectItem> select_list;
  std::vector<SqlTableRef> from;
  SqlExprPtr where;                     // May be null.
  std::vector<SqlExprPtr> group_by;     // Column refs.
  SqlExprPtr having;                    // May be null.
  std::vector<SqlOrderItem> order_by;
  int64_t limit = -1;
};

}  // namespace dfp

#endif  // DFP_SRC_SQL_AST_H_
