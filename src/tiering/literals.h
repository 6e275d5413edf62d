// Plan-literal extraction: the bridge between plan fingerprinting and immediate patching.
//
// A structure-hash cache hit with different literals can reuse the cached machine code if every
// parameterized-out constant is re-bound. WalkLiterals below is the one traversal of a plan's
// literal sites and so defines their slot order; ExtractLiterals numbers the sites along it,
// records the bindings, and maps each literal-bearing Expr to its first slot so the code
// generator can tag the lowered immediates (Value::Param) for the emitter's relocation table.
// BindLiterals writes bindings back along the same walk, and FingerprintPlan
// (src/service/fingerprint.h) hashes its literal and pinned halves from it.
//
// LIMIT counts are literals for fingerprinting purposes but are *pinned* here: FinalizePlan
// sizes sort buffers and result arenas from `bound_rows`, which a LIMIT caps, so patching a
// limit immediate would leave the cached schedule sized for the wrong row bound. The
// parameterized cache therefore keys on (structure, pinned) and only patches the free literals.
#ifndef DFP_SRC_TIERING_LITERALS_H_
#define DFP_SRC_TIERING_LITERALS_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/plan/physical.h"

namespace dfp {

struct LiteralBinding {
  enum class Kind : uint8_t {
    kValue,    // Register payload (ints, scaled decimals, dates, bit-cast doubles, IN-list
               // members): patched by writing the payload into the recorded immediate sites.
    kPattern,  // LIKE pattern: patched by registering the new pattern with the runtime and
               // writing the new pattern id into the recorded call-argument sites.
    kLimit,    // Pinned (see header comment): never patched; equal by cache-key construction.
  };
  Kind kind = Kind::kValue;
  int64_t value = 0;    // kValue payload / kLimit count / kPattern's registered pattern id.
  std::string pattern;  // kPattern payload.

  bool operator==(const LiteralBinding& other) const {
    return kind == other.kind && value == other.value && pattern == other.pattern;
  }
  bool operator!=(const LiteralBinding& other) const { return !(*this == other); }
};

struct PlanLiterals {
  std::vector<LiteralBinding> bindings;  // Indexed by literal slot.
  // Literal-bearing Expr -> its first slot (kInList members occupy slot .. slot + n - 1).
  // Valid only while the walked plan is alive; used during code generation of that same plan.
  std::unordered_map<const Expr*, uint32_t> expr_slots;

  // Slot of `expr`'s payload, or kNoLiteralSlot (from src/ir/instr.h) when the expr carries no
  // parameterized literal.
  uint32_t SlotOf(const Expr& expr) const;
};

namespace internal {

template <typename E, typename Visitor>
void WalkLiteralExpr(E& expr, Visitor& visit) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      visit.Value(expr, expr.literal);
      break;
    case ExprKind::kLike:
      visit.Pattern(expr, expr.pattern);
      break;
    case ExprKind::kInList:
      for (auto& candidate : expr.list) {
        visit.Value(expr, candidate);
      }
      break;
    default:
      break;
  }
  for (auto& [condition, value] : expr.whens) {
    WalkLiteralExpr<E>(*condition, visit);
    WalkLiteralExpr<E>(*value, visit);
  }
  if (expr.left != nullptr) {
    WalkLiteralExpr<E>(*expr.left, visit);
  }
  if (expr.right != nullptr) {
    WalkLiteralExpr<E>(*expr.right, visit);
  }
  if (expr.else_value != nullptr) {
    WalkLiteralExpr<E>(*expr.else_value, visit);
  }
}

}  // namespace internal

// Visits every literal site of the plan under `op` in slot order: operators pre-order, each
// one's LIMIT count before its expressions, expressions in list order, each expression's own
// payload before its whens (condition, value), left, right and else. `visit` receives
// Limit(count), Value(expr, payload) — a kLiteral's payload, or each kInList member in turn —
// and Pattern(expr, pattern); the payloads are references, writable when `Op` is not const.
template <typename Op, typename Visitor>
void WalkLiterals(Op& op, Visitor& visit) {
  using E = std::conditional_t<std::is_const_v<Op>, const Expr, Expr>;
  if (op.limit >= 0) {
    visit.Limit(op.limit);
  }
  for (const ExprPtr& expr : op.exprs) {
    internal::WalkLiteralExpr<E>(*expr, visit);
  }
  for (const PhysicalOpPtr& child : op.children) {
    WalkLiterals<Op>(*child, visit);
  }
}

// Collects every literal payload of `root`, numbered in WalkLiterals order.
PlanLiterals ExtractLiterals(const PhysicalOp& root);

// True when a plan with `cached` bindings can serve one with `incoming` bindings by patching:
// identical slot layout and kinds, and every pinned binding identical. (Guaranteed for plans
// agreeing on (structure, pinned) fingerprint halves; checked defensively anyway.)
bool PatchCompatible(const PlanLiterals& cached, const PlanLiterals& incoming);

// Rewrites `root`'s literal payloads in place, along WalkLiterals, so a subsequent
// ExtractLiterals(root) yields exactly `bindings`. This is the tree-level counterpart of
// PatchCachedPlan: the replayer (src/replay/) rebinds a cloned plan template to a recorded
// query's literals *before* compilation, so — unlike machine-code patching — pinned LIMIT
// counts are rewritten too (FinalizePlan then re-derives the row bounds they cap). Throws
// dfp::Error when `bindings` does not match the plan's slot layout (count or kind mismatch),
// which indicates a corrupt or mismatched trace rather than a programming error.
void BindLiterals(PhysicalOp& root, const std::vector<LiteralBinding>& bindings);

}  // namespace dfp

#endif  // DFP_SRC_TIERING_LITERALS_H_
