#include "src/vcpu/disasm.h"

#include "src/util/str.h"

namespace dfp {
namespace {

std::string Reg(uint8_t reg) {
  if (reg == kNoPhysReg) {
    return "r?";
  }
  return StrFormat("r%u", reg);
}

std::string OperandA(const MInstr& instr) {
  return instr.a_is_imm ? StrFormat("%lld", static_cast<long long>(instr.imm)) : Reg(instr.ra);
}

std::string OperandB(const MInstr& instr) {
  return instr.b_is_imm ? StrFormat("%lld", static_cast<long long>(instr.imm)) : Reg(instr.rb);
}

}  // namespace

std::string MInstrToString(const MInstr& instr) {
  std::string text;
  switch (instr.op) {
    case Opcode::kConst:
      text = StrFormat("%s = const %lld", Reg(instr.dst).c_str(),
                       static_cast<long long>(instr.imm));
      break;
    case Opcode::kMov:
      text = StrFormat("%s = mov %s", Reg(instr.dst).c_str(), OperandA(instr).c_str());
      break;
    case Opcode::kLoad1:
    case Opcode::kLoad4:
    case Opcode::kLoad8:
      text = StrFormat("%s = %s [%s + %d]", Reg(instr.dst).c_str(), OpcodeName(instr.op),
                       Reg(instr.ra).c_str(), instr.disp);
      break;
    case Opcode::kStore8:
      text = StrFormat("%s %s, [%s + %d]", OpcodeName(instr.op), OperandA(instr).c_str(),
                       Reg(instr.rb).c_str(), instr.disp);
      break;
    case Opcode::kBr:
      text = StrFormat("br @%u", instr.target0);
      break;
    case Opcode::kCondBr:
      text = StrFormat("condbr %s, @%u, @%u", Reg(instr.ra).c_str(), instr.target0,
                       instr.target1);
      break;
    case Opcode::kCall: {
      std::string args;
      for (const MArg& arg : instr.args) {
        if (!args.empty()) {
          args += ", ";
        }
        switch (arg.kind) {
          case MArg::Kind::kReg:
            args += Reg(static_cast<uint8_t>(arg.value));
            break;
          case MArg::Kind::kSpill:
            args += StrFormat("spill[%llu]", static_cast<unsigned long long>(arg.value));
            break;
          case MArg::Kind::kImm:
            args += StrFormat("%lld", static_cast<long long>(arg.value));
            break;
        }
      }
      if (instr.dst != kNoPhysReg) {
        text = StrFormat("%s = call fn%u(%s)", Reg(instr.dst).c_str(), instr.callee,
                         args.c_str());
      } else {
        text = StrFormat("call fn%u(%s)", instr.callee, args.c_str());
      }
      break;
    }
    case Opcode::kRet:
      text = (instr.ra == kNoPhysReg && !instr.a_is_imm)
                 ? "ret"
                 : StrFormat("ret %s", OperandA(instr).c_str());
      break;
    case Opcode::kSelect:
      text = StrFormat("%s = select %s, %s, %s", Reg(instr.dst).c_str(), Reg(instr.ra).c_str(),
                       Reg(instr.rb).c_str(), Reg(instr.rc).c_str());
      break;
    case Opcode::kGetTag:
      text = StrFormat("%s = gettag", Reg(instr.dst).c_str());
      break;
    case Opcode::kSetTag:
      text = StrFormat("settag %s", OperandA(instr).c_str());
      break;
    case Opcode::kLoadSpill:
      text = StrFormat("%s = ldspill [%u]", Reg(instr.dst).c_str(), instr.spill_slot);
      break;
    case Opcode::kStoreSpill:
      text = StrFormat("stspill %s, [%u]", Reg(instr.ra).c_str(), instr.spill_slot);
      break;
    case Opcode::kNeg:
    case Opcode::kFNeg:
    case Opcode::kSiToFp:
      text = StrFormat("%s = %s %s", Reg(instr.dst).c_str(), OpcodeName(instr.op),
                       OperandA(instr).c_str());
      break;
    default:
      text = StrFormat("%s = %s %s, %s", Reg(instr.dst).c_str(), OpcodeName(instr.op),
                       OperandA(instr).c_str(), OperandB(instr).c_str());
      break;
  }
  if (instr.is_tag) {
    text += "   ; register tagging";
  }
  return text;
}

}  // namespace dfp
