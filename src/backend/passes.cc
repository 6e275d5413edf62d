#include "src/backend/passes.h"

#include <bit>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "src/backend/liveness.h"
#include "src/util/check.h"

namespace dfp {
namespace {

// True for operations that read only operand `a`.
bool IsUnary(Opcode op) {
  switch (op) {
    case Opcode::kMov:
    case Opcode::kNeg:
    case Opcode::kFNeg:
    case Opcode::kSiToFp:
      return true;
    default:
      return false;
  }
}

}  // namespace

int ConstantFoldPass(IrFunction& function, LineageListener* lineage) {
  (void)lineage;  // Folding keeps instruction ids in place; nothing to report.
  int changed = 0;
  for (IrBlock& block : function.blocks()) {
    // Known constant values of virtual registers within this block.
    std::unordered_map<uint32_t, int64_t> constants;
    for (IrInstr& instr : block.instrs) {
      // Substitute known-constant register operands with immediates.
      auto substitute = [&](Value& value) {
        if (value.IsReg()) {
          auto it = constants.find(value.vreg);
          if (it != constants.end()) {
            value = Value::Imm(it->second);
            ++changed;
          }
        }
      };
      substitute(instr.a);
      substitute(instr.b);
      substitute(instr.c);
      for (Value& arg : instr.args) {
        substitute(arg);
      }

      // Fold the instruction itself when all inputs are immediates. Parameterized immediates
      // (plan literals) are runtime values subject to patching — never bake them into results.
      if (IsFoldable(instr) && instr.a.IsImm() && !instr.a.IsParam() &&
          (IsUnary(instr.op) || (instr.b.IsImm() && !instr.b.IsParam()))) {
        // A trapping operation stays in place, so the trap happens at run time.
        const std::optional<uint64_t> folded =
            EvalOp(instr.op, static_cast<uint64_t>(instr.a.imm),
                   instr.b.IsImm() ? static_cast<uint64_t>(instr.b.imm) : 0, 0);
        if (folded.has_value()) {
          instr.op = Opcode::kConst;
          instr.a = Value::Imm(static_cast<int64_t>(*folded));
          instr.b = Value::None();
          instr.c = Value::None();
          ++changed;
        }
      }
      // Select with a constant condition degenerates to a move.
      if (instr.op == Opcode::kSelect && instr.a.IsImm() && !instr.a.IsParam()) {
        Value chosen = instr.a.imm != 0 ? instr.b : instr.c;
        instr.op = Opcode::kMov;
        instr.a = chosen;
        instr.b = Value::None();
        instr.c = Value::None();
        ++changed;
      }

      // Track constant definitions; any other definition invalidates. Parameterized constants
      // are not propagated: their register is the single patchable definition site.
      if (instr.HasDst()) {
        if (instr.op == Opcode::kConst && !instr.a.IsParam()) {
          constants[instr.dst] = instr.a.imm;
        } else {
          constants.erase(instr.dst);
        }
      }
    }
  }
  return changed;
}

int CombineInstrsPass(IrFunction& function, LineageListener* lineage) {
  int changed = 0;
  for (IrBlock& block : function.blocks()) {
    // Most recent in-block definition index of each vreg, for safe address folding.
    std::unordered_map<uint32_t, size_t> last_def;
    for (size_t i = 0; i < block.instrs.size(); ++i) {
      IrInstr& instr = block.instrs[i];

      // Strength reduction and identities on integer operations with immediate second operand.
      // Parameterized immediates are exempt: rewriting `mul x, 8` into `shl x, 3` would change
      // what a later literal patch of that immediate means.
      if (instr.b.IsImm() && !instr.b.IsParam() && instr.HasDst()) {
        const int64_t imm = instr.b.imm;
        if (instr.op == Opcode::kMul && imm > 0 && (imm & (imm - 1)) == 0) {
          instr.op = Opcode::kShl;
          instr.b = Value::Imm(std::countr_zero(static_cast<uint64_t>(imm)));
          ++changed;
        } else if ((instr.op == Opcode::kAdd || instr.op == Opcode::kSub ||
                    instr.op == Opcode::kOr || instr.op == Opcode::kXor ||
                    instr.op == Opcode::kShl || instr.op == Opcode::kShr) &&
                   imm == 0) {
          instr.op = Opcode::kMov;
          instr.b = Value::None();
          ++changed;
        } else if ((instr.op == Opcode::kMul || instr.op == Opcode::kDiv) && imm == 1) {
          instr.op = Opcode::kMov;
          instr.b = Value::None();
          ++changed;
        } else if ((instr.op == Opcode::kMul || instr.op == Opcode::kAnd) && imm == 0) {
          instr.op = Opcode::kConst;
          instr.a = Value::Imm(0);
          instr.b = Value::None();
          ++changed;
        }
      }

      // Address folding (instruction fusing): a load/store whose address comes from an in-block
      // `add base, imm` absorbs the addition into its displacement.
      const bool is_mem = IsLoad(instr.op) || IsStore(instr.op);
      if (is_mem) {
        Value& addr = IsLoad(instr.op) ? instr.a : instr.b;
        if (addr.IsReg()) {
          auto def_it = last_def.find(addr.vreg);
          if (def_it != last_def.end()) {
            const IrInstr& def = block.instrs[def_it->second];
            if (def.op == Opcode::kAdd && def.a.IsReg() && def.b.IsImm() && !def.b.IsParam()) {
              // The base register must not have been redefined between def and this use.
              auto base_def = last_def.find(def.a.vreg);
              const bool base_ok =
                  base_def == last_def.end() || base_def->second <= def_it->second;
              const int64_t new_disp = static_cast<int64_t>(instr.disp) + def.b.imm;
              if (base_ok && new_disp >= INT32_MIN && new_disp <= INT32_MAX) {
                addr = Value::Reg(def.a.vreg);
                instr.disp = static_cast<int32_t>(new_disp);
                if (lineage != nullptr) {
                  lineage->OnAbsorb(instr.id, def.id);
                }
                ++changed;
              }
            }
          }
        }
      }

      if (instr.HasDst()) {
        last_def[instr.dst] = i;
      }
    }
  }
  return changed;
}

int CommonSubexprPass(IrFunction& function, LineageListener* lineage) {
  int changed = 0;
  for (IrBlock& block : function.blocks()) {
    // Local value numbering. Each definition event gets a fresh value number; expression keys
    // are built over operand value numbers, so stale entries can never match.
    uint64_t next_vn = 1;
    std::unordered_map<uint32_t, uint64_t> reg_vn;  // vreg -> value number
    // Immediates are numbered by (value, literal slot): two parameterized literals that happen
    // to share a value today must not merge, or a later patch of one slot would leak into the
    // other's uses. Equal-slot occurrences still share a number (patching rewrites every
    // recorded site of a slot, so merging them is sound).
    std::map<std::pair<uint64_t, uint32_t>, uint64_t> imm_vn;
    struct Available {
      uint32_t vreg;
      uint32_t instr_id;
      uint64_t vn;  // Value number the result register must still hold.
    };
    std::unordered_map<std::string, Available> expressions;  // expression key -> availability

    auto vn_of = [&](const Value& value) -> uint64_t {
      if (value.IsImm()) {
        auto [it, inserted] = imm_vn.try_emplace(
            std::make_pair(static_cast<uint64_t>(value.imm), value.literal_slot), next_vn);
        if (inserted) {
          ++next_vn;
        }
        return it->second;
      }
      if (value.IsReg()) {
        auto [it, inserted] = reg_vn.try_emplace(value.vreg, next_vn);
        if (inserted) {
          ++next_vn;
        }
        return it->second;
      }
      return 0;
    };

    for (IrInstr& instr : block.instrs) {
      const bool eligible = IsPure(instr) && instr.HasDst() && !IsLoad(instr.op) &&
                            instr.op != Opcode::kGetTag && instr.op != Opcode::kConst &&
                            instr.op != Opcode::kMov;
      if (eligible) {
        char key[64];
        std::snprintf(key, sizeof(key), "%u|%llu|%llu|%llu|%d", static_cast<unsigned>(instr.op),
                      static_cast<unsigned long long>(vn_of(instr.a)),
                      static_cast<unsigned long long>(vn_of(instr.b)),
                      static_cast<unsigned long long>(vn_of(instr.c)), instr.disp);
        auto it = expressions.find(key);
        if (it != expressions.end() && reg_vn.count(it->second.vreg) != 0 &&
            reg_vn[it->second.vreg] == it->second.vn) {
          // Duplicate: reuse the earlier result via a move. The surviving computation now also
          // serves this instruction's owner.
          if (lineage != nullptr) {
            lineage->OnAbsorb(it->second.instr_id, instr.id);
          }
          const uint32_t source = it->second.vreg;
          instr.op = Opcode::kMov;
          instr.a = Value::Reg(source);
          instr.b = Value::None();
          instr.c = Value::None();
          instr.args.clear();
          // The destination now holds the same value number as the source.
          reg_vn[instr.dst] = it->second.vn;
          ++changed;
          continue;
        }
        // New expression: the destination gets a fresh value number and the expression becomes
        // available.
        const uint64_t vn = next_vn++;
        reg_vn[instr.dst] = vn;
        expressions[key] = Available{instr.dst, instr.id, vn};
        continue;
      }
      // Non-eligible definitions still update value numbers.
      if (instr.HasDst()) {
        if (instr.op == Opcode::kMov && instr.a.IsReg()) {
          reg_vn[instr.dst] = vn_of(instr.a);
        } else if (instr.op == Opcode::kConst) {
          reg_vn[instr.dst] = vn_of(instr.a);
        } else {
          reg_vn[instr.dst] = next_vn++;
        }
      }
    }
  }
  return changed;
}

int DeadCodeElimPass(IrFunction& function, LineageListener* lineage) {
  int removed_total = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    LivenessInfo liveness = ComputeLiveness(function);
    for (uint32_t b = 0; b < function.blocks().size(); ++b) {
      IrBlock& block = function.block(b);
      std::vector<bool> live = liveness.blocks[b].live_out;
      live.resize(function.next_vreg(), false);
      // Backward scan: an instruction writing a non-live register with no side effects is dead.
      for (size_t i = block.instrs.size(); i-- > 0;) {
        IrInstr& instr = block.instrs[i];
        const bool dead = instr.HasDst() && IsPure(instr) && !live[instr.dst];
        if (dead) {
          if (lineage != nullptr) {
            lineage->OnRemove(instr.id);
          }
          block.instrs.erase(block.instrs.begin() + static_cast<ptrdiff_t>(i));
          ++removed_total;
          changed = true;
          continue;
        }
        if (instr.HasDst()) {
          live[instr.dst] = false;
        }
        ForEachUse(instr, [&](uint32_t vreg) { live[vreg] = true; });
      }
    }
  }
  return removed_total;
}

void RunOptimizationPipeline(IrFunction& function, LineageListener* lineage) {
  // Two rounds: folding can expose combines and vice versa; DCE last cleans up.
  for (int round = 0; round < 2; ++round) {
    ConstantFoldPass(function, lineage);
    CombineInstrsPass(function, lineage);
    CommonSubexprPass(function, lineage);
  }
  DeadCodeElimPass(function, lineage);
}

}  // namespace dfp
