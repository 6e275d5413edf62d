#include "src/backend/emitter.h"

#include <unordered_map>
#include <utility>

#include "src/util/check.h"

namespace dfp {
namespace {

// Emission context for one function.
class Emitter {
 public:
  Emitter(const IrFunction& function, const Allocation& allocation)
      : function_(function), alloc_(allocation) {}

  EmittedFunction Run() {
    EmitPrologue();
    for (uint32_t b = 0; b < function_.blocks().size(); ++b) {
      block_offsets_[b] = static_cast<uint32_t>(out_.size());
      for (const IrInstr& instr : function_.block(b).instrs) {
        EmitInstr(instr);
      }
    }
    PatchBranches();
    EmittedFunction result;
    result.code = std::move(out_);
    result.literal_sites = std::move(literal_sites_);
    result.spill_slots = alloc_.spill_slot_count;
    result.num_args = function_.num_args();
    return result;
  }

 private:
  MInstr& Emit(Opcode op, uint32_t ir_id) {
    MInstr instr;
    instr.op = op;
    instr.ir_id = ir_id;
    out_.push_back(std::move(instr));
    return out_.back();
  }

  // Records that the most recently emitted instruction carries literal `slot` in `field`.
  void RecordSite(uint32_t slot, LiteralSite::Field field, uint8_t arg_index = 0) {
    LiteralSite site;
    site.slot = slot;
    site.code_offset = static_cast<uint32_t>(out_.size() - 1);
    site.field = field;
    site.arg_index = arg_index;
    literal_sites_.push_back(site);
  }

  // Materializes an operand into a register: the assigned physical register, or `scratch` after
  // loading a spill slot / an immediate.
  uint8_t UseReg(const Value& value, uint8_t scratch, uint32_t ir_id, bool is_tag = false) {
    if (value.IsImm()) {
      MInstr& instr = Emit(Opcode::kConst, ir_id);
      instr.dst = scratch;
      instr.a_is_imm = true;
      instr.imm = value.imm;
      instr.is_tag = is_tag;
      if (value.IsParam()) {
        RecordSite(value.literal_slot, LiteralSite::Field::kImm);
      }
      return scratch;
    }
    DFP_CHECK(value.IsReg());
    const VRegLocation& loc = alloc_.loc(value.vreg);
    DFP_CHECK(loc.allocated);
    if (!loc.spilled) {
      return loc.preg;
    }
    MInstr& instr = Emit(Opcode::kLoadSpill, ir_id);
    instr.dst = scratch;
    instr.spill_slot = loc.slot;
    instr.is_tag = is_tag;
    return scratch;
  }

  // Returns the register the result should be computed into, and emits the store-back afterwards
  // via FinishDst.
  uint8_t DstReg(uint32_t vreg) {
    const VRegLocation& loc = alloc_.loc(vreg);
    DFP_CHECK(loc.allocated);
    return loc.spilled ? kScratch0 : loc.preg;
  }

  void FinishDst(uint32_t vreg, uint8_t computed_in, uint32_t ir_id, bool is_tag = false) {
    const VRegLocation& loc = alloc_.loc(vreg);
    if (loc.spilled) {
      MInstr& instr = Emit(Opcode::kStoreSpill, ir_id);
      instr.ra = computed_in;
      instr.spill_slot = loc.slot;
      instr.is_tag = is_tag;
    }
  }

  void EmitPrologue() {
    // Arguments arrive in r0..rN. They are the lowest vregs and all live from position 0, so the
    // allocator gives each its arrival register first: a used argument stays there or is spilled,
    // and only the spills need code. Past r11 an argument has no allocatable arrival register.
    const uint32_t first_id = FirstInstrId();
    for (uint8_t i = 0; i < function_.num_args(); ++i) {
      const VRegLocation& loc = alloc_.loc(i);
      DFP_CHECK(i <= kLastAllocatable && (!loc.allocated || loc.spilled || loc.preg == i));
      if (loc.spilled) {
        MInstr& instr = Emit(Opcode::kStoreSpill, first_id);
        instr.ra = i;
        instr.spill_slot = loc.slot;
      }
    }
  }

  uint32_t FirstInstrId() const {
    for (const IrBlock& block : function_.blocks()) {
      if (!block.instrs.empty()) {
        return block.instrs.front().id;
      }
    }
    return kNoIrId;
  }

  void EmitInstr(const IrInstr& ir) {
    switch (ir.op) {
      case Opcode::kConst:
      case Opcode::kMov: {
        const uint8_t dst = DstReg(ir.dst);
        if (ir.a.IsImm()) {
          MInstr& instr = Emit(Opcode::kConst, ir.id);
          instr.dst = dst;
          instr.a_is_imm = true;
          instr.imm = ir.a.imm;
          if (ir.a.IsParam()) {
            RecordSite(ir.a.literal_slot, LiteralSite::Field::kImm);
          }
        } else {
          const uint8_t src = UseReg(ir.a, kScratch0, ir.id);
          MInstr& instr = Emit(Opcode::kMov, ir.id);
          instr.dst = dst;
          instr.ra = src;
        }
        FinishDst(ir.dst, dst, ir.id);
        break;
      }
      case Opcode::kNeg:
      case Opcode::kFNeg:
      case Opcode::kSiToFp: {
        const uint8_t src = UseReg(ir.a, kScratch0, ir.id);
        const uint8_t dst = DstReg(ir.dst);
        MInstr& instr = Emit(ir.op, ir.id);
        instr.dst = dst;
        instr.ra = src;
        FinishDst(ir.dst, dst, ir.id);
        break;
      }
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kRem:
      case Opcode::kAnd:
      case Opcode::kOr:
      case Opcode::kXor:
      case Opcode::kShl:
      case Opcode::kShr:
      case Opcode::kRotr:
      case Opcode::kCmpEq:
      case Opcode::kCmpNe:
      case Opcode::kCmpLt:
      case Opcode::kCmpLe:
      case Opcode::kCmpGt:
      case Opcode::kCmpGe:
      case Opcode::kFAdd:
      case Opcode::kFSub:
      case Opcode::kFMul:
      case Opcode::kFDiv:
      case Opcode::kFCmpEq:
      case Opcode::kFCmpNe:
      case Opcode::kFCmpLt:
      case Opcode::kFCmpLe:
      case Opcode::kFCmpGt:
      case Opcode::kFCmpGe:
      case Opcode::kCrc32: {
        const uint8_t lhs = UseReg(ir.a, kScratch0, ir.id);
        const uint8_t dst = DstReg(ir.dst);
        MInstr instr;
        instr.op = ir.op;
        instr.ir_id = ir.id;
        instr.dst = dst;
        instr.ra = lhs;
        if (ir.b.IsImm()) {
          instr.b_is_imm = true;
          instr.imm = ir.b.imm;
          out_.push_back(std::move(instr));
          if (ir.b.IsParam()) {
            RecordSite(ir.b.literal_slot, LiteralSite::Field::kImm);
          }
        } else {
          instr.rb = UseReg(ir.b, kScratch1, ir.id);
          out_.push_back(std::move(instr));
        }
        FinishDst(ir.dst, dst, ir.id);
        break;
      }
      case Opcode::kLoad1:
      case Opcode::kLoad4:
      case Opcode::kLoad8: {
        const uint8_t addr = UseReg(ir.a, kScratch0, ir.id);
        const uint8_t dst = DstReg(ir.dst);
        MInstr& instr = Emit(ir.op, ir.id);
        instr.dst = dst;
        instr.ra = addr;
        instr.disp = ir.disp;
        FinishDst(ir.dst, dst, ir.id);
        break;
      }
      case Opcode::kStore8: {
        const uint8_t value = UseReg(ir.a, kScratch0, ir.id);
        const uint8_t addr = UseReg(ir.b, kScratch1, ir.id);
        MInstr& instr = Emit(ir.op, ir.id);
        instr.ra = value;
        instr.rb = addr;
        instr.disp = ir.disp;
        break;
      }
      case Opcode::kSelect: {
        const uint8_t cond = UseReg(ir.a, kScratch0, ir.id);
        const uint8_t then_value = UseReg(ir.b, kScratch1, ir.id);
        const uint8_t else_value = UseReg(ir.c, kScratch2, ir.id);
        const uint8_t dst = DstReg(ir.dst);
        MInstr& instr = Emit(Opcode::kSelect, ir.id);
        instr.dst = dst;
        instr.ra = cond;
        instr.rb = then_value;
        instr.rc = else_value;
        FinishDst(ir.dst, dst, ir.id);
        break;
      }
      case Opcode::kBr: {
        MInstr& instr = Emit(Opcode::kBr, ir.id);
        pending_branches_.push_back({static_cast<uint32_t>(out_.size() - 1), ir.target0, 0});
        instr.target0 = 0;
        break;
      }
      case Opcode::kCondBr: {
        const uint8_t cond = UseReg(ir.a, kScratch0, ir.id);
        MInstr& instr = Emit(Opcode::kCondBr, ir.id);
        instr.ra = cond;
        pending_branches_.push_back({static_cast<uint32_t>(out_.size() - 1), ir.target0, 0});
        pending_branches_.push_back({static_cast<uint32_t>(out_.size() - 1), ir.target1, 1});
        break;
      }
      case Opcode::kCall: {
        MInstr instr;
        instr.op = Opcode::kCall;
        instr.ir_id = ir.id;
        instr.callee = ir.callee;
        for (const Value& arg : ir.args) {
          MArg marg;
          if (arg.IsImm()) {
            marg.kind = MArg::Kind::kImm;
            marg.value = static_cast<uint64_t>(arg.imm);
            if (arg.IsParam()) {
              pending_arg_sites_.push_back(
                  {arg.literal_slot, static_cast<uint8_t>(instr.args.size())});
            }
          } else {
            const VRegLocation& loc = alloc_.loc(arg.vreg);
            DFP_CHECK(loc.allocated);
            if (loc.spilled) {
              marg.kind = MArg::Kind::kSpill;
              marg.value = loc.slot;
            } else {
              marg.kind = MArg::Kind::kReg;
              marg.value = loc.preg;
            }
          }
          instr.args.push_back(marg);
        }
        if (ir.HasDst()) {
          const uint8_t dst = DstReg(ir.dst);
          instr.dst = dst;
          out_.push_back(std::move(instr));
          FlushArgSites();
          FinishDst(ir.dst, dst, ir.id);
        } else {
          out_.push_back(std::move(instr));
          FlushArgSites();
        }
        break;
      }
      case Opcode::kRet: {
        MInstr instr;
        instr.op = Opcode::kRet;
        instr.ir_id = ir.id;
        if (ir.a.IsImm()) {
          instr.a_is_imm = true;
          instr.imm = ir.a.imm;
        } else if (ir.a.IsReg()) {
          instr.ra = UseReg(ir.a, kScratch0, ir.id);
        }
        out_.push_back(std::move(instr));
        if (ir.a.IsParam()) {
          RecordSite(ir.a.literal_slot, LiteralSite::Field::kImm);
        }
        break;
      }
      case Opcode::kGetTag: {
        const uint8_t dst = DstReg(ir.dst);
        MInstr& instr = Emit(Opcode::kGetTag, ir.id);
        instr.dst = dst;
        instr.is_tag = true;
        FinishDst(ir.dst, dst, ir.id, /*is_tag=*/true);
        break;
      }
      case Opcode::kSetTag: {
        MInstr instr;
        instr.op = Opcode::kSetTag;
        instr.ir_id = ir.id;
        instr.is_tag = true;
        if (ir.a.IsImm()) {
          instr.a_is_imm = true;
          instr.imm = ir.a.imm;
        } else {
          instr.ra = UseReg(ir.a, kScratch0, ir.id, /*is_tag=*/true);
        }
        out_.push_back(std::move(instr));
        break;
      }
      case Opcode::kLoadSpill:
      case Opcode::kStoreSpill:
        DFP_UNREACHABLE();
    }
  }

  void PatchBranches() {
    for (const PendingBranch& pending : pending_branches_) {
      auto it = block_offsets_.find(pending.block);
      DFP_CHECK(it != block_offsets_.end());
      if (pending.which == 0) {
        out_[pending.instr].target0 = it->second;
      } else {
        out_[pending.instr].target1 = it->second;
      }
    }
  }

  // Immediate call arguments are discovered while the MInstr is still being assembled locally;
  // their sites are recorded once it lands in out_ and has a code offset.
  void FlushArgSites() {
    for (const auto& [slot, arg_index] : pending_arg_sites_) {
      RecordSite(slot, LiteralSite::Field::kArg, arg_index);
    }
    pending_arg_sites_.clear();
  }

  struct PendingBranch {
    uint32_t instr;
    uint32_t block;
    int which;
  };

  const IrFunction& function_;
  const Allocation& alloc_;
  std::vector<MInstr> out_;
  std::unordered_map<uint32_t, uint32_t> block_offsets_;
  std::vector<PendingBranch> pending_branches_;
  std::vector<std::pair<uint32_t, uint8_t>> pending_arg_sites_;
  std::vector<LiteralSite> literal_sites_;
};

}  // namespace

EmittedFunction EmitMachineCode(const IrFunction& function, const Allocation& allocation) {
  Emitter emitter(function, allocation);
  return emitter.Run();
}

}  // namespace dfp
