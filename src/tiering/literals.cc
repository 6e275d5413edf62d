#include "src/tiering/literals.h"

#include <string>
#include <utility>

#include "src/ir/instr.h"
#include "src/util/check.h"

namespace dfp {
namespace {

// ExtractLiterals' visitor: numbers the sites in walk order.
struct LiteralCollector {
  PlanLiterals out;

  void Add(LiteralBinding::Kind kind, int64_t value, std::string pattern = "") {
    out.bindings.push_back({kind, value, std::move(pattern)});
  }
  void Limit(int64_t count) { Add(LiteralBinding::Kind::kLimit, count); }
  void Value(const Expr& site, int64_t payload) {
    out.expr_slots.emplace(&site, static_cast<uint32_t>(out.bindings.size()));
    Add(LiteralBinding::Kind::kValue, payload);
  }
  void Pattern(const Expr& site, const std::string& pattern) {
    out.expr_slots.emplace(&site, static_cast<uint32_t>(out.bindings.size()));
    Add(LiteralBinding::Kind::kPattern, 0, pattern);
  }
};

// BindLiterals' visitor: overwrites each site with the next binding. Kind checks fire on any
// trace/plan divergence.
struct LiteralWriter {
  const std::vector<LiteralBinding>& bindings;
  size_t next = 0;

  const LiteralBinding& Take(LiteralBinding::Kind kind) {
    if (next >= bindings.size()) {
      throw Error("literal bindings exhausted: plan has more literal slots than the trace");
    }
    const LiteralBinding& binding = bindings[next++];
    if (binding.kind != kind) {
      throw Error("literal binding kind mismatch at slot " + std::to_string(next - 1));
    }
    return binding;
  }
  void Limit(int64_t& count) { count = Take(LiteralBinding::Kind::kLimit).value; }
  void Value(Expr&, int64_t& payload) { payload = Take(LiteralBinding::Kind::kValue).value; }
  void Pattern(Expr&, std::string& pattern) {
    pattern = Take(LiteralBinding::Kind::kPattern).pattern;
  }
};

}  // namespace

uint32_t PlanLiterals::SlotOf(const Expr& expr) const {
  auto it = expr_slots.find(&expr);
  return it == expr_slots.end() ? kNoLiteralSlot : it->second;
}

PlanLiterals ExtractLiterals(const PhysicalOp& root) {
  LiteralCollector collector;
  WalkLiterals(root, collector);
  return std::move(collector.out);
}

bool PatchCompatible(const PlanLiterals& cached, const PlanLiterals& incoming) {
  if (cached.bindings.size() != incoming.bindings.size()) {
    return false;
  }
  for (size_t i = 0; i < cached.bindings.size(); ++i) {
    const LiteralBinding& a = cached.bindings[i];
    const LiteralBinding& b = incoming.bindings[i];
    if (a.kind != b.kind) {
      return false;
    }
    if (a.kind == LiteralBinding::Kind::kLimit && a.value != b.value) {
      return false;
    }
  }
  return true;
}

void BindLiterals(PhysicalOp& root, const std::vector<LiteralBinding>& bindings) {
  LiteralWriter writer{bindings};
  WalkLiterals(root, writer);
  if (writer.next != bindings.size()) {
    throw Error("literal bindings left over: trace carries " + std::to_string(bindings.size()) +
                " slots, plan has " + std::to_string(writer.next));
  }
}

}  // namespace dfp
