#include "src/vcpu/code_map.h"

#include "src/util/check.h"
#include "src/vcpu/cost_model.h"

namespace dfp {
namespace {

// The slot an operand reads: its register, or the zero slot when it is absent.
uint8_t SourceSlot(uint8_t reg) {
  if (reg == kNoPhysReg) {
    return kZeroSlot;
  }
  DFP_CHECK(reg < kNumPhysRegs);
  return reg;
}

// The slot a result lands in: its register, or the sink slot when it is absent.
uint8_t DestSlot(uint8_t reg) {
  if (reg == kNoPhysReg) {
    return kSinkSlot;
  }
  DFP_CHECK(reg < kNumPhysRegs);
  return reg;
}

uint8_t Register(uint8_t slot) { return slot < kNumPhysRegs ? slot : kNoPhysReg; }

// The reg/reg form of a binary operation that has its own reg/reg and reg/imm cases (the reg/imm
// form is the next enumerator), or kAlu.
ExecOp RegRegForm(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
      return ExecOp::kAddRR;
    case Opcode::kSub:
      return ExecOp::kSubRR;
    case Opcode::kMul:
      return ExecOp::kMulRR;
    case Opcode::kAnd:
      return ExecOp::kAndRR;
    case Opcode::kOr:
      return ExecOp::kOrRR;
    case Opcode::kXor:
      return ExecOp::kXorRR;
    case Opcode::kShl:
      return ExecOp::kShlRR;
    case Opcode::kShr:
      return ExecOp::kShrRR;
    case Opcode::kCmpEq:
      return ExecOp::kCmpEqRR;
    case Opcode::kCmpNe:
      return ExecOp::kCmpNeRR;
    case Opcode::kCmpLt:
      return ExecOp::kCmpLtRR;
    case Opcode::kCmpLe:
      return ExecOp::kCmpLeRR;
    case Opcode::kCmpGt:
      return ExecOp::kCmpGtRR;
    case Opcode::kCmpGe:
      return ExecOp::kCmpGeRR;
    default:
      return ExecOp::kAlu;
  }
}

// The enumerator `n` places after `first`.
ExecOp Plus(ExecOp first, int n) { return static_cast<ExecOp>(static_cast<int>(first) + n); }

int Distance(Opcode from, Opcode to) { return static_cast<int>(to) - static_cast<int>(from); }

// Lowers one instruction whose call arguments, if any, start at `first_arg` in call_args.
ExecInstr Lower(const MInstr& in, size_t first_arg) {
  ExecInstr out;
  out.op = in.op;
  out.dst = DestSlot(in.dst);
  out.ra = SourceSlot(in.ra);
  out.rb = SourceSlot(in.rb);
  out.rc = SourceSlot(in.rc);
  out.cost = static_cast<uint8_t>(BaseCost(in.op));
  out.bits = (in.a_is_imm ? ExecInstr::kAImm : 0) | (in.b_is_imm ? ExecInstr::kBImm : 0) |
             (in.is_tag ? ExecInstr::kIsTag : 0);
  out.payload = static_cast<uint64_t>(in.imm);
  const auto targets = [&] {
    return in.target0 | static_cast<uint64_t>(in.target1) << 32;
  };
  switch (in.op) {
    case Opcode::kConst:
    case Opcode::kMov:
      out.xop = in.a_is_imm ? ExecOp::kMovImm : ExecOp::kMovReg;
      break;
    case Opcode::kLoad1:
    case Opcode::kLoad4:
    case Opcode::kLoad8:
      DFP_CHECK(!in.a_is_imm);
      out.xop = Plus(ExecOp::kLoad1, Distance(Opcode::kLoad1, in.op));
      out.payload = static_cast<uint64_t>(static_cast<int64_t>(in.disp));
      break;
    case Opcode::kStore8:
      DFP_CHECK(!in.a_is_imm && !in.b_is_imm);
      out.xop = ExecOp::kStore8;
      out.payload = static_cast<uint64_t>(static_cast<int64_t>(in.disp));
      break;
    case Opcode::kSelect:
      out.xop = in.a_is_imm || in.b_is_imm ? ExecOp::kAlu : ExecOp::kSelect;
      break;
    case Opcode::kBr:
      out.xop = ExecOp::kBr;
      out.payload = targets();
      break;
    case Opcode::kCondBr:
      DFP_CHECK(!in.a_is_imm);
      out.xop = ExecOp::kCondBr;
      out.payload = targets();
      break;
    case Opcode::kCall:
      DFP_CHECK(in.args.size() <= kNumPhysRegs);
      for (const MArg& arg : in.args) {
        DFP_CHECK(arg.kind != MArg::Kind::kReg || arg.value < kNumPhysRegs);
      }
      out.xop = ExecOp::kCall;
      out.bits |= static_cast<uint8_t>(in.args.size() << ExecInstr::kArgCountShift);
      out.payload = in.callee | static_cast<uint64_t>(first_arg) << 32;
      break;
    case Opcode::kRet:
      out.xop = in.a_is_imm ? ExecOp::kRetImm : ExecOp::kRetReg;
      break;
    case Opcode::kGetTag:
      out.xop = ExecOp::kGetTag;
      break;
    case Opcode::kSetTag:
      out.xop = in.a_is_imm ? ExecOp::kSetTagImm : ExecOp::kSetTagReg;
      break;
    case Opcode::kLoadSpill:
      out.xop = ExecOp::kLoadSpill;
      out.payload = in.spill_slot;
      break;
    case Opcode::kStoreSpill:
      DFP_CHECK(!in.a_is_imm);
      out.xop = ExecOp::kStoreSpill;
      out.payload = in.spill_slot;
      break;
    default: {
      const ExecOp reg_reg = RegRegForm(in.op);
      if (reg_reg == ExecOp::kAlu || in.a_is_imm) {
        out.xop = ExecOp::kAlu;
      } else {
        out.xop = Plus(reg_reg, in.b_is_imm ? 1 : 0);
      }
      break;
    }
  }
  return out;
}

}  // namespace

MInstr CodeSegment::Instr(size_t offset) const {
  const ExecInstr& in = code[offset];
  MInstr out;
  out.op = in.op;
  out.dst = Register(in.dst);
  out.ra = Register(in.ra);
  out.rb = Register(in.rb);
  out.rc = Register(in.rc);
  out.a_is_imm = (in.bits & ExecInstr::kAImm) != 0;
  out.b_is_imm = (in.bits & ExecInstr::kBImm) != 0;
  out.is_tag = (in.bits & ExecInstr::kIsTag) != 0;
  out.ir_id = ir_ids[offset];
  switch (in.xop) {
    case ExecOp::kLoad1:
    case ExecOp::kLoad4:
    case ExecOp::kLoad8:
    case ExecOp::kStore8:
      out.disp = static_cast<int32_t>(in.payload);
      break;
    case ExecOp::kLoadSpill:
    case ExecOp::kStoreSpill:
      out.spill_slot = static_cast<uint16_t>(in.payload);
      break;
    case ExecOp::kBr:
    case ExecOp::kCondBr:
      out.target0 = in.lo();
      out.target1 = in.hi();
      break;
    case ExecOp::kCall:
      out.callee = in.lo();
      out.args.assign(call_args.begin() + in.hi(), call_args.begin() + in.hi() + in.num_args());
      break;
    default:
      out.imm = static_cast<int64_t>(in.payload);
      break;
  }
  return out;
}

uint32_t CodeMap::AddSegment(SegmentKind kind, std::string name, std::vector<MInstr> code) {
  DFP_CHECK(code.size() < kSegmentSpacing);
  CodeSegment segment;
  segment.id = static_cast<uint32_t>(segments_.size());
  segment.kind = kind;
  segment.name = std::move(name);
  segment.base_ip = (static_cast<uint64_t>(segment.id) + 1) * kSegmentSpacing;
  size_t num_args = 0;
  for (const MInstr& instr : code) {
    num_args += instr.args.size();
  }
  segment.code.reserve(code.size());
  segment.ir_ids.reserve(code.size());
  segment.call_args.reserve(num_args);
  for (const MInstr& instr : code) {
    segment.code.push_back(Lower(instr, segment.call_args.size()));
    segment.ir_ids.push_back(instr.ir_id);
    segment.call_args.insert(segment.call_args.end(), instr.args.begin(), instr.args.end());
  }
  segments_.push_back(std::move(segment));
  return segments_.back().id;
}

uint32_t CodeMap::AddHostSegment(SegmentKind kind, std::string name, uint64_t virtual_size) {
  DFP_CHECK(virtual_size > 0 && virtual_size < kSegmentSpacing);
  CodeSegment segment;
  segment.id = static_cast<uint32_t>(segments_.size());
  segment.kind = kind;
  segment.name = std::move(name);
  segment.base_ip = (static_cast<uint64_t>(segment.id) + 1) * kSegmentSpacing;
  segment.virtual_size = virtual_size;
  segments_.push_back(std::move(segment));
  return segments_.back().id;
}

uint32_t CodeMap::AddFunction(std::string name, uint32_t segment, uint32_t entry,
                              uint16_t spill_slots, uint8_t num_args) {
  DFP_CHECK(segment < segments_.size());
  FuncInfo info;
  info.name = std::move(name);
  info.id = static_cast<uint32_t>(functions_.size());
  info.segment = segment;
  info.entry = entry;
  info.spill_slots = spill_slots;
  info.num_args = num_args;
  functions_.push_back(std::move(info));
  return functions_.back().id;
}

uint32_t CodeMap::AddHostFunction(std::string name, uint32_t segment, HostFn fn,
                                  uint8_t num_args) {
  DFP_CHECK(segment < segments_.size());
  FuncInfo info;
  info.name = std::move(name);
  info.id = static_cast<uint32_t>(functions_.size());
  info.segment = segment;
  info.num_args = num_args;
  info.host = std::move(fn);
  info.is_host = true;
  functions_.push_back(std::move(info));
  return functions_.back().id;
}

const CodeSegment* CodeMap::FindByIp(uint64_t ip) const {
  uint64_t index = ip / kSegmentSpacing;
  if (index == 0 || index > segments_.size()) {
    return nullptr;
  }
  const CodeSegment& segment = segments_[index - 1];
  if (ip - segment.base_ip >= segment.SizeIps()) {
    return nullptr;
  }
  return &segment;
}

}  // namespace dfp
