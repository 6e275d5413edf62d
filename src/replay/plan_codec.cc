#include "src/replay/plan_codec.h"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

// Enum bounds for parse-side validation (serialization writes the raw underlying value).
constexpr int kMaxOpKind = static_cast<int>(OpKind::kResultSink);
constexpr int kMaxExprKind = static_cast<int>(ExprKind::kExtractYear);
constexpr int kMaxColumnType = static_cast<int>(ColumnType::kBool);
constexpr int kMaxBinOp = static_cast<int>(BinOp::kOr);
constexpr int kMaxUnOp = static_cast<int>(UnOp::kNeg);
constexpr int kMaxAggOp = static_cast<int>(AggOp::kCountStar);
constexpr int kMaxJoinType = static_cast<int>(JoinType::kAnti);

[[noreturn]] void Malformed(const std::string& line) {
  throw Error("malformed plan line: '" + line + "'");
}

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

ExprPtr ParseExpr(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw Error("truncated plan: expression expected");
  }
  std::istringstream stream(line);
  std::string kind_token;
  stream >> kind_token;
  if (kind_token != "x") {
    Malformed(line);
  }
  int kind = 0;
  int type = 0;
  int bin = 0;
  int un = 0;
  int agg = 0;
  size_t list_size = 0;
  std::string pattern_token;
  auto expr = std::make_unique<Expr>();
  if (!(stream >> kind >> type >> expr->slot >> expr->literal >> bin >> un >> agg >>
        pattern_token >> list_size) ||
      kind < 0 || kind > kMaxExprKind || type < 0 || type > kMaxColumnType || bin < 0 ||
      bin > kMaxBinOp || un < 0 || un > kMaxUnOp || agg < 0 || agg > kMaxAggOp) {
    Malformed(line);
  }
  expr->kind = static_cast<ExprKind>(kind);
  expr->type = static_cast<ColumnType>(type);
  expr->bin = static_cast<BinOp>(bin);
  expr->un = static_cast<UnOp>(un);
  expr->agg = static_cast<AggOp>(agg);
  expr->pattern = DecodeToken(pattern_token);
  // Counts come from the input: elements are read one at a time, so a count the line cannot
  // back fails as malformed before it sizes anything.
  for (size_t i = 0; i < list_size; ++i) {
    int64_t candidate = 0;
    if (!(stream >> candidate)) {
      Malformed(line);
    }
    expr->list.push_back(candidate);
  }
  size_t whens = 0;
  int has_left = 0;
  int has_right = 0;
  int has_else = 0;
  if (!(stream >> whens >> has_left >> has_right >> has_else)) {
    Malformed(line);
  }
  std::string trailing;
  if (stream >> trailing) {
    Malformed(line);
  }
  for (size_t i = 0; i < whens; ++i) {
    ExprPtr condition = ParseExpr(in);
    ExprPtr value = ParseExpr(in);
    expr->whens.emplace_back(std::move(condition), std::move(value));
  }
  if (has_left != 0) {
    expr->left = ParseExpr(in);
  }
  if (has_right != 0) {
    expr->right = ParseExpr(in);
  }
  if (has_else != 0) {
    expr->else_value = ParseExpr(in);
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

PhysicalOpPtr ParseOp(std::istream& in, const Database& db) {
  std::string line;
  if (!std::getline(in, line)) {
    throw Error("truncated plan: operator expected");
  }
  std::istringstream stream(line);
  std::string kind_token;
  stream >> kind_token;
  if (kind_token != "op") {
    Malformed(line);
  }
  int kind = 0;
  size_t children = 0;
  int projecting = 0;
  int join = 0;
  std::string est_hex;
  std::string table_token;
  std::string label_token;
  size_t outputs = 0;
  auto op = std::make_unique<PhysicalOp>();
  if (!(stream >> kind >> op->id >> children >> projecting >> join >> op->limit >>
        op->bound_rows >> est_hex >> table_token >> label_token >> outputs) ||
      kind < 0 || kind > kMaxOpKind || join < 0 || join > kMaxJoinType || projecting < 0 ||
      projecting > 1) {
    Malformed(line);
  }
  op->kind = static_cast<OpKind>(kind);
  op->projecting = projecting != 0;
  op->join_type = static_cast<JoinType>(join);
  op->estimated_rows = BitsToDouble(ParseHex16(est_hex));
  op->label = DecodeToken(label_token);
  if (table_token != "-") {
    const std::string table_name = DecodeToken(table_token);
    if (!db.HasTable(table_name)) {
      throw Error("plan references unknown table '" + table_name + "'");
    }
    op->table = &db.table(table_name);
  }
  for (size_t i = 0; i < outputs; ++i) {
    std::string name_token;
    int type = 0;
    if (!(stream >> name_token >> type) || type < 0 || type > kMaxColumnType) {
      Malformed(line);
    }
    op->output.push_back({DecodeToken(name_token), static_cast<ColumnType>(type)});
  }
  auto read_slots = [&stream, &line](std::vector<int>& slots) {
    size_t count = 0;
    if (!(stream >> count)) {
      Malformed(line);
    }
    for (size_t i = 0; i < count; ++i) {
      int slot = 0;
      if (!(stream >> slot)) {
        Malformed(line);
      }
      slots.push_back(slot);
    }
  };
  read_slots(op->build_keys);
  read_slots(op->probe_keys);
  read_slots(op->build_payload);
  read_slots(op->group_keys);
  size_t sorts = 0;
  if (!(stream >> sorts)) {
    Malformed(line);
  }
  for (size_t i = 0; i < sorts; ++i) {
    SortItem item;
    int descending = 0;
    if (!(stream >> item.slot >> descending) || descending < 0 || descending > 1) {
      Malformed(line);
    }
    item.descending = descending != 0;
    op->sort_items.push_back(item);
  }
  size_t exprs = 0;
  if (!(stream >> exprs)) {
    Malformed(line);
  }
  std::string trailing;
  if (stream >> trailing) {
    Malformed(line);
  }
  for (size_t i = 0; i < exprs; ++i) {
    op->exprs.push_back(ParseExpr(in));
  }
  for (size_t i = 0; i < children; ++i) {
    op->children.push_back(ParseOp(in, db));
  }
  return op;
}

}  // namespace

std::string EncodeToken(const std::string& text) {
  if (text.empty()) {
    return "%";
  }
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    if (c == '%' || std::isspace(c) != 0 || c < 0x20 || c == 0x7F) {
      char buffer[4];
      std::snprintf(buffer, sizeof(buffer), "%%%02X", c);
      out += buffer;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string DecodeToken(const std::string& token) {
  if (token == "%") {
    return "";
  }
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size() || std::isxdigit(static_cast<unsigned char>(token[i + 1])) == 0 ||
        std::isxdigit(static_cast<unsigned char>(token[i + 2])) == 0) {
      throw Error("malformed token escape in '" + token + "'");
    }
    out += static_cast<char>(std::stoi(token.substr(i + 1, 2), nullptr, 16));
    i += 2;
  }
  return out;
}

void WritePlan(const PhysicalOp& root, std::ostream& out) {
  WriteOp(root, out);
  out << "endplan\n";
}

std::string EncodePlanText(const PhysicalOp& root) {
  std::ostringstream out;
  WritePlan(root, out);
  return out.str();
}

PhysicalOpPtr ParsePlan(std::istream& in, const Database& db) {
  PhysicalOpPtr root = ParseOp(in, db);
  std::string line;
  if (!std::getline(in, line) || line != "endplan") {
    throw Error("plan block missing its 'endplan' terminator");
  }
  return root;
}

PhysicalOpPtr ParsePlanText(const std::string& text, const Database& db) {
  std::istringstream in(text);
  return ParsePlan(in, db);
}

}  // namespace dfp
