#include "src/replay/plan_codec.h"

#include <sstream>

#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

void WriteExpr(const Expr& expr, std::ostream& out) {
  out << "x " << static_cast<int>(expr.kind) << " " << static_cast<int>(expr.type) << " "
      << expr.slot << " " << expr.literal << " " << static_cast<int>(expr.bin) << " "
      << static_cast<int>(expr.un) << " " << static_cast<int>(expr.agg) << " "
      << EncodeToken(expr.pattern) << " " << expr.list.size();
  for (int64_t candidate : expr.list) {
    out << " " << candidate;
  }
  out << " " << expr.whens.size() << " " << (expr.left != nullptr ? 1 : 0) << " "
      << (expr.right != nullptr ? 1 : 0) << " " << (expr.else_value != nullptr ? 1 : 0) << "\n";
  // Children in the fixed order every plan walker in this codebase uses: whens pairs, left,
  // right, else (cf. src/service/fingerprint.cc, src/tiering/literals.cc).
  for (const auto& [condition, value] : expr.whens) {
    WriteExpr(*condition, out);
    WriteExpr(*value, out);
  }
  if (expr.left != nullptr) {
    WriteExpr(*expr.left, out);
  }
  if (expr.right != nullptr) {
    WriteExpr(*expr.right, out);
  }
  if (expr.else_value != nullptr) {
    WriteExpr(*expr.else_value, out);
  }
}

// The readers below recurse once per level, so a block may nest only as deep as a plan dfp
// builds can: `depth` counts the levels above the one being read, operators above an operator
// and expression levels above an expression. An expression may sit one level over
// kMaxExprNesting (the binder expands BETWEEN into two comparisons, a level over the SQL
// node), and an operator tree may be kMaxExprNesting deep, far deeper than any plan the front
// end or the TPC-H suite builds. A deeper line is malformed.
//
// Enums travel as their underlying value; each read is bounded by the enum's last member.
ExprPtr ParseExpr(LineReader& reader, uint32_t depth) {
  reader.Expect("x", "expression");
  if (depth > kMaxExprNesting + 1) {
    reader.Reject();
  }
  auto expr = std::make_unique<Expr>();
  expr->kind = reader.Enum(ExprKind::kExtractYear);
  expr->type = reader.Enum(ColumnType::kBool);
  reader.Fields(expr->slot, expr->literal);
  expr->bin = reader.Enum(BinOp::kOr);
  expr->un = reader.Enum(UnOp::kNeg);
  expr->agg = reader.Enum(AggOp::kCountStar);
  expr->pattern = reader.Token();
  // Counts come from the input: elements are read one at a time, so a count the line cannot
  // back fails as malformed before it sizes anything.
  const uint64_t list_size = reader.Read<uint64_t>();
  for (uint64_t i = 0; i < list_size; ++i) {
    expr->list.push_back(reader.Read<int64_t>());
  }
  const uint64_t whens = reader.Read<uint64_t>();
  const bool has_left = reader.Flag();
  const bool has_right = reader.Flag();
  const bool has_else = reader.Flag();
  reader.End();
  for (uint64_t i = 0; i < whens; ++i) {
    ExprPtr condition = ParseExpr(reader, depth + 1);
    ExprPtr value = ParseExpr(reader, depth + 1);
    expr->whens.emplace_back(std::move(condition), std::move(value));
  }
  if (has_left) {
    expr->left = ParseExpr(reader, depth + 1);
  }
  if (has_right) {
    expr->right = ParseExpr(reader, depth + 1);
  }
  if (has_else) {
    expr->else_value = ParseExpr(reader, depth + 1);
  }
  return expr;
}

void WriteOp(const PhysicalOp& op, std::ostream& out) {
  out << "op " << static_cast<int>(op.kind) << " " << op.id << " " << op.children.size() << " "
      << (op.projecting ? 1 : 0) << " " << static_cast<int>(op.join_type) << " " << op.limit
      << " " << op.bound_rows << " " << Hex16(DoubleBits(op.estimated_rows)) << " "
      << (op.table != nullptr ? EncodeToken(op.table->name()) : "-") << " "
      << EncodeToken(op.label) << " " << op.output.size();
  for (const OutputColumn& column : op.output) {
    out << " " << EncodeToken(column.name) << " " << static_cast<int>(column.type);
  }
  auto write_slots = [&out](const std::vector<int>& slots) {
    out << " " << slots.size();
    for (int slot : slots) {
      out << " " << slot;
    }
  };
  write_slots(op.build_keys);
  write_slots(op.probe_keys);
  write_slots(op.build_payload);
  write_slots(op.group_keys);
  out << " " << op.sort_items.size();
  for (const SortItem& item : op.sort_items) {
    out << " " << item.slot << " " << (item.descending ? 1 : 0);
  }
  out << " " << op.exprs.size() << "\n";
  for (const ExprPtr& expr : op.exprs) {
    WriteExpr(*expr, out);
  }
  for (const PhysicalOpPtr& child : op.children) {
    WriteOp(*child, out);
  }
}

PhysicalOpPtr ParseOp(LineReader& reader, const Database& db, uint32_t depth) {
  reader.Expect("op", "operator");
  if (depth > kMaxExprNesting) {
    reader.Reject();
  }
  auto op = std::make_unique<PhysicalOp>();
  op->kind = reader.Enum(OpKind::kResultSink);
  op->id = reader.Read<OperatorId>();
  const uint64_t children = reader.Read<uint64_t>();
  op->projecting = reader.Flag();
  op->join_type = reader.Enum(JoinType::kAnti);
  reader.Fields(op->limit, op->bound_rows);
  op->estimated_rows = BitsToDouble(reader.Hex());
  const std::string table_name = reader.Token();
  if (table_name != "-") {
    if (!db.HasTable(table_name)) {
      throw Error("plan references unknown table '" + table_name + "'");
    }
    op->table = &db.table(table_name);
  }
  op->label = reader.Token();
  const uint64_t outputs = reader.Read<uint64_t>();
  for (uint64_t i = 0; i < outputs; ++i) {
    OutputColumn column;
    column.name = reader.Token();
    column.type = reader.Enum(ColumnType::kBool);
    op->output.push_back(std::move(column));
  }
  auto read_slots = [&reader](std::vector<int>& slots) {
    const uint64_t count = reader.Read<uint64_t>();
    for (uint64_t i = 0; i < count; ++i) {
      slots.push_back(reader.Read<int>());
    }
  };
  read_slots(op->build_keys);
  read_slots(op->probe_keys);
  read_slots(op->build_payload);
  read_slots(op->group_keys);
  const uint64_t sorts = reader.Read<uint64_t>();
  for (uint64_t i = 0; i < sorts; ++i) {
    SortItem item;
    item.slot = reader.Read<int>();
    item.descending = reader.Flag();
    op->sort_items.push_back(item);
  }
  const uint64_t exprs = reader.Read<uint64_t>();
  reader.End();
  for (uint64_t i = 0; i < exprs; ++i) {
    op->exprs.push_back(ParseExpr(reader, 0));
  }
  for (uint64_t i = 0; i < children; ++i) {
    op->children.push_back(ParseOp(reader, db, depth + 1));
  }
  return op;
}

}  // namespace

std::string EncodePlanText(const PhysicalOp& root) {
  std::ostringstream out;
  WriteOp(root, out);
  out << "endplan\n";
  return out.str();
}

PhysicalOpPtr ParsePlanText(const std::string& text, const Database& db) {
  std::istringstream in(text);
  LineReader reader(in, "plan");
  PhysicalOpPtr root = ParseOp(reader, db, 0);
  if (!reader.Next() || reader.line() != "endplan") {
    throw Error("plan block missing its 'endplan' terminator");
  }
  return root;
}

}  // namespace dfp
