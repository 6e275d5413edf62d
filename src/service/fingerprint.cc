#include "src/service/fingerprint.h"

#include "src/tiering/literals.h"
#include "src/util/hash.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

// All three halves use the engine's HashCombine chain so the fingerprint is stable across
// platforms and runs. The seeds are arbitrary non-zero values.

// Accumulates the structural half over a pre-order plan walk that reads no literal payload.
struct FingerprintBuilder {
  uint64_t structure = 0xdf9de11ce0ull;

  void Shape(uint64_t value) { structure = HashCombine(structure, HashKey(value)); }

  void ShapeString(const std::string& text) {
    Shape(text.size());
    for (char c : text) {
      Shape(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }

  void AddExpr(const Expr& expr) {
    Shape(static_cast<uint64_t>(expr.kind));
    Shape(static_cast<uint64_t>(expr.type));
    switch (expr.kind) {
      case ExprKind::kColumnRef:
        Shape(static_cast<uint64_t>(expr.slot));
        break;
      case ExprKind::kBinary:
        Shape(static_cast<uint64_t>(expr.bin));
        break;
      case ExprKind::kUnary:
        Shape(static_cast<uint64_t>(expr.un));
        break;
      case ExprKind::kAggregate:
        Shape(static_cast<uint64_t>(expr.agg));
        break;
      case ExprKind::kInList:
        Shape(expr.list.size());
        break;
      case ExprKind::kCase:
        Shape(expr.whens.size());
        break;
      case ExprKind::kLiteral:  // Payloads are parameters, not shape.
      case ExprKind::kLike:
      case ExprKind::kCast:
      case ExprKind::kExtractYear:
        break;
    }
    for (const auto& [condition, value] : expr.whens) {
      AddExpr(*condition);
      AddExpr(*value);
    }
    if (expr.left != nullptr) {
      AddExpr(*expr.left);
    }
    if (expr.right != nullptr) {
      AddExpr(*expr.right);
    }
    if (expr.else_value != nullptr) {
      AddExpr(*expr.else_value);
    }
  }

  void AddOp(const PhysicalOp& op) {
    Shape(static_cast<uint64_t>(op.kind));
    Shape(op.children.size());
    Shape(op.output.size());
    for (const OutputColumn& column : op.output) {
      Shape(static_cast<uint64_t>(column.type));
    }
    if (op.table != nullptr) {
      ShapeString(op.table->name());
    }
    Shape(static_cast<uint64_t>(op.projecting));
    Shape(static_cast<uint64_t>(op.join_type));
    for (int slot : op.build_keys) {
      Shape(static_cast<uint64_t>(slot) + 1);
    }
    for (int slot : op.probe_keys) {
      Shape(static_cast<uint64_t>(slot) + 2);
    }
    for (int slot : op.build_payload) {
      Shape(static_cast<uint64_t>(slot) + 3);
    }
    for (int slot : op.group_keys) {
      Shape(static_cast<uint64_t>(slot) + 4);
    }
    for (const SortItem& item : op.sort_items) {
      Shape(static_cast<uint64_t>(item.slot));
      Shape(static_cast<uint64_t>(item.descending));
    }
    Shape(op.exprs.size());
    for (const ExprPtr& expr : op.exprs) {
      AddExpr(*expr);
    }
    for (const auto& child : op.children) {
      AddOp(*child);
    }
  }
};

// Accumulates the literal and pinned halves over the plan's literal sites (WalkLiterals).
// LIMIT counts are tuning constants, not plan shape (a top-10 and a top-100 of the same query
// are the same prepared statement; presence is shaped via the operator kind), but they are
// pinned: a LIMIT caps bound_rows, which sized the cached artifact's buffers.
struct LiteralHasher {
  uint64_t literals = 0x117e7a15ull;
  uint64_t pinned = 0x9177ed11ull;

  void Add(uint64_t value) { literals = HashCombine(literals, HashKey(value)); }
  void Limit(int64_t count) {
    Add(static_cast<uint64_t>(count));
    pinned = HashCombine(pinned, HashKey(static_cast<uint64_t>(count)));
  }
  void Value(const Expr&, int64_t payload) { Add(static_cast<uint64_t>(payload)); }
  void Pattern(const Expr&, const std::string& pattern) {
    Add(pattern.size());
    for (char c : pattern) {
      Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
  }
};

}  // namespace

PlanFingerprint FingerprintPlan(const PhysicalOp& root, uint64_t catalog_version) {
  FingerprintBuilder builder;
  builder.Shape(catalog_version);
  builder.AddOp(root);
  LiteralHasher hasher;
  WalkLiterals(root, hasher);
  return {builder.structure, hasher.literals, hasher.pinned};
}

std::string FingerprintKey(const PlanFingerprint& fingerprint) {
  return Hex16(fingerprint.structure);
}

}  // namespace dfp
