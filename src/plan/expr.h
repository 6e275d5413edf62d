// Scalar and aggregate expressions over tuple slots.
//
// Expressions are evaluated two ways: compiled to VIR by the engine's code generator, and
// evaluated host-side by the Volcano interpreter (the correctness oracle). Both implementations
// share this representation and must agree on semantics (decimal rescaling, date arithmetic,
// interned-string equality, three-valued logic is intentionally out of scope: all values are
// non-null, as in the synthetic datasets).
#ifndef DFP_SRC_PLAN_EXPR_H_
#define DFP_SRC_PLAN_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/types.h"

namespace dfp {

enum class ExprKind : uint8_t {
  kColumnRef,
  kLiteral,
  kBinary,
  kUnary,
  kAggregate,  // Only valid in GroupBy operators' aggregate lists.
  kCase,
  kLike,
  kInList,
  kCast,
  kExtractYear,  // Calendar year of a date (computed arithmetically in generated code).
};

enum class BinOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kRem,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnOp : uint8_t { kNot, kNeg };

enum class AggOp : uint8_t { kSum, kCount, kMin, kMax, kAvg, kCountStar };

// Highest expression tree accepted, in levels over its leaves (see ParseSelect, ParsePlanText).
inline constexpr uint32_t kMaxExprNesting = 1000;

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::kLiteral;
  ColumnType type = ColumnType::kInt64;  // Result type.

  // kColumnRef: index into the evaluating operator's input tuple.
  int slot = -1;
  // kLiteral: register payload (scaled decimal, days, packed string, bit-cast double).
  int64_t literal = 0;
  // kBinary / kUnary.
  BinOp bin = BinOp::kAdd;
  UnOp un = UnOp::kNot;
  ExprPtr left;
  ExprPtr right;
  // kLike: left = input, pattern below.
  std::string pattern;
  // kInList: left = input, candidates are literal payloads of `type_of(left)`.
  std::vector<int64_t> list;
  // kCase: (condition, value) pairs plus else.
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  ExprPtr else_value;
  // kAggregate: input below (null for COUNT(*)).
  AggOp agg = AggOp::kSum;

  ExprPtr Clone() const;

  // Renders the expression for plan labels and reports.
  std::string ToString() const;
};

// --- Factories ---
ExprPtr MakeColumnRef(int slot, ColumnType type);
ExprPtr MakeLiteral(ColumnType type, int64_t payload);
ExprPtr MakeBinary(BinOp op, ExprPtr left, ExprPtr right);
ExprPtr MakeUnary(UnOp op, ExprPtr input);
ExprPtr MakeAggregate(AggOp op, ExprPtr input);
ExprPtr MakeLike(ExprPtr input, std::string pattern);
ExprPtr MakeInList(ExprPtr input, std::vector<int64_t> candidates);
ExprPtr MakeCase(std::vector<std::pair<ExprPtr, ExprPtr>> whens, ExprPtr else_value);
ExprPtr MakeExtractYear(ExprPtr date_input);

// Result type of a binary operation (throws dfp::Error on type mismatch).
ColumnType BinaryResultType(BinOp op, ColumnType left, ColumnType right);

bool IsComparison(BinOp op);

// Rewrites all slot indices through `mapping` (old slot -> new slot).
void RemapSlots(Expr& expr, const std::vector<int>& mapping);

}  // namespace dfp

#endif  // DFP_SRC_PLAN_EXPR_H_
