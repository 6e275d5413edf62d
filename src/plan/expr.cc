#include "src/plan/expr.h"

#include <bit>

#include "src/util/check.h"
#include "src/util/date.h"
#include "src/util/decimal.h"
#include "src/util/str.h"

namespace dfp {

ExprPtr Expr::Clone() const {
  auto copy = std::make_unique<Expr>();
  copy->kind = kind;
  copy->type = type;
  copy->slot = slot;
  copy->literal = literal;
  copy->bin = bin;
  copy->un = un;
  copy->pattern = pattern;
  copy->list = list;
  copy->agg = agg;
  if (left != nullptr) {
    copy->left = left->Clone();
  }
  if (right != nullptr) {
    copy->right = right->Clone();
  }
  if (else_value != nullptr) {
    copy->else_value = else_value->Clone();
  }
  for (const auto& [cond, value] : whens) {
    copy->whens.emplace_back(cond->Clone(), value->Clone());
  }
  return copy;
}

ExprPtr MakeColumnRef(int slot, ColumnType type) {
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kColumnRef;
  expr->slot = slot;
  expr->type = type;
  return expr;
}

ExprPtr MakeLiteral(ColumnType type, int64_t payload) {
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kLiteral;
  expr->type = type;
  expr->literal = payload;
  return expr;
}

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

ColumnType BinaryResultType(BinOp op, ColumnType left, ColumnType right) {
  if (IsComparison(op) || op == BinOp::kAnd || op == BinOp::kOr) {
    return ColumnType::kBool;
  }
  // Arithmetic: types must agree, except int64 combines with decimal to decimal and with double
  // to double.
  auto promote = [&](ColumnType a, ColumnType b) -> ColumnType {
    if (a == b) {
      return a;
    }
    if ((a == ColumnType::kInt64 && b == ColumnType::kDecimal) ||
        (a == ColumnType::kDecimal && b == ColumnType::kInt64)) {
      return ColumnType::kDecimal;
    }
    if ((a == ColumnType::kInt64 && b == ColumnType::kDouble) ||
        (a == ColumnType::kDouble && b == ColumnType::kInt64)) {
      return ColumnType::kDouble;
    }
    if ((a == ColumnType::kDate && b == ColumnType::kInt64) ||
        (a == ColumnType::kInt64 && b == ColumnType::kDate)) {
      return ColumnType::kDate;  // Date +/- days.
    }
    throw Error(std::string("type mismatch in arithmetic: ") + ColumnTypeName(a) + " vs " +
                ColumnTypeName(b));
  };
  return promote(left, right);
}

ExprPtr MakeBinary(BinOp op, ExprPtr left, ExprPtr right) {
  DFP_CHECK(left != nullptr && right != nullptr);
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kBinary;
  expr->bin = op;
  expr->type = BinaryResultType(op, left->type, right->type);
  expr->left = std::move(left);
  expr->right = std::move(right);
  return expr;
}

ExprPtr MakeUnary(UnOp op, ExprPtr input) {
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kUnary;
  expr->un = op;
  expr->type = op == UnOp::kNot ? ColumnType::kBool : input->type;
  expr->left = std::move(input);
  return expr;
}

ExprPtr MakeAggregate(AggOp op, ExprPtr input) {
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kAggregate;
  expr->agg = op;
  switch (op) {
    case AggOp::kCount:
    case AggOp::kCountStar:
      expr->type = ColumnType::kInt64;
      break;
    case AggOp::kAvg:
      expr->type = ColumnType::kDouble;
      break;
    default:
      DFP_CHECK(input != nullptr);
      expr->type = input->type;
      break;
  }
  expr->left = std::move(input);
  return expr;
}

ExprPtr MakeLike(ExprPtr input, std::string pattern) {
  DFP_CHECK(input->type == ColumnType::kString);
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kLike;
  expr->type = ColumnType::kBool;
  expr->left = std::move(input);
  expr->pattern = std::move(pattern);
  return expr;
}

ExprPtr MakeInList(ExprPtr input, std::vector<int64_t> candidates) {
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kInList;
  expr->type = ColumnType::kBool;
  expr->left = std::move(input);
  expr->list = std::move(candidates);
  return expr;
}

ExprPtr MakeCase(std::vector<std::pair<ExprPtr, ExprPtr>> whens, ExprPtr else_value) {
  DFP_CHECK(!whens.empty() && else_value != nullptr);
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kCase;
  expr->type = whens.front().second->type;
  expr->whens = std::move(whens);
  expr->else_value = std::move(else_value);
  return expr;
}

ExprPtr MakeExtractYear(ExprPtr date_input) {
  DFP_CHECK(date_input->type == ColumnType::kDate);
  auto expr = std::make_unique<Expr>();
  expr->kind = ExprKind::kExtractYear;
  expr->type = ColumnType::kInt64;
  expr->left = std::move(date_input);
  return expr;
}

void RemapSlots(Expr& expr, const std::vector<int>& mapping) {
  if (expr.kind == ExprKind::kColumnRef) {
    DFP_CHECK(expr.slot >= 0 && static_cast<size_t>(expr.slot) < mapping.size());
    expr.slot = mapping[static_cast<size_t>(expr.slot)];
    DFP_CHECK(expr.slot >= 0);
  }
  if (expr.left != nullptr) {
    RemapSlots(*expr.left, mapping);
  }
  if (expr.right != nullptr) {
    RemapSlots(*expr.right, mapping);
  }
  if (expr.else_value != nullptr) {
    RemapSlots(*expr.else_value, mapping);
  }
  for (auto& [cond, value] : expr.whens) {
    RemapSlots(*cond, mapping);
    RemapSlots(*value, mapping);
  }
}

namespace {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kRem:
      return "%";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "and";
    case BinOp::kOr:
      return "or";
  }
  return "?";
}

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "sum";
    case AggOp::kCount:
      return "count";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
    case AggOp::kAvg:
      return "avg";
    case AggOp::kCountStar:
      return "count(*)";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return StrFormat("#%d", slot);
    case ExprKind::kLiteral:
      switch (type) {
        case ColumnType::kDecimal:
          return DecimalToString(literal);
        case ColumnType::kDate:
          return DateToString(static_cast<int32_t>(literal));
        case ColumnType::kDouble:
          return StrFormat("%g", std::bit_cast<double>(literal));
        case ColumnType::kString:
          return "'str'";
        default:
          return StrFormat("%lld", static_cast<long long>(literal));
      }
    case ExprKind::kBinary:
      return "(" + left->ToString() + " " + BinOpName(bin) + " " + right->ToString() + ")";
    case ExprKind::kUnary:
      return un == UnOp::kNot ? "not " + left->ToString() : "-" + left->ToString();
    case ExprKind::kAggregate:
      if (agg == AggOp::kCountStar) {
        return "count(*)";
      }
      return std::string(AggOpName(agg)) + "(" + left->ToString() + ")";
    case ExprKind::kCase:
      return "case(...)";
    case ExprKind::kLike:
      return left->ToString() + " like '" + pattern + "'";
    case ExprKind::kInList:
      return left->ToString() + " in (...)";
    case ExprKind::kCast:
      return StrFormat("cast(%s as %s)", left->ToString().c_str(), ColumnTypeName(type));
    case ExprKind::kExtractYear:
      return "year(" + left->ToString() + ")";
  }
  return "?";
}

}  // namespace dfp
