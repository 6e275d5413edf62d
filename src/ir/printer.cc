#include "src/ir/printer.h"

#include <bit>

#include "src/util/str.h"

namespace dfp {
namespace {

std::string ValueToString(const Value& value, IrType type) {
  switch (value.kind) {
    case Value::Kind::kNone:
      return "";
    case Value::Kind::kVReg:
      return StrFormat("%%%u", value.vreg);
    case Value::Kind::kImm:
      if (type == IrType::kF64) {
        return StrFormat("%g", std::bit_cast<double>(value.imm));
      }
      return StrFormat("%lld", static_cast<long long>(value.imm));
  }
  return "?";
}

std::string BlockName(const IrFunction& function, uint32_t block) {
  if (block == kNoBlock) {
    return "?";
  }
  return function.block(block).name;
}

}  // namespace

std::string InstrToString(const IrInstr& instr, const IrFunction& function) {
  std::string out;
  auto value = [&](const Value& v) { return ValueToString(v, instr.type); };
  switch (instr.op) {
    case Opcode::kBr:
      out = StrFormat("br %s", BlockName(function, instr.target0).c_str());
      break;
    case Opcode::kCondBr:
      out = StrFormat("condbr %s, %s, %s", value(instr.a).c_str(),
                      BlockName(function, instr.target0).c_str(),
                      BlockName(function, instr.target1).c_str());
      break;
    case Opcode::kRet:
      out = instr.a.IsNone() ? "ret" : StrFormat("ret %s", value(instr.a).c_str());
      break;
    case Opcode::kCall: {
      std::string args;
      for (const Value& arg : instr.args) {
        if (!args.empty()) {
          args += ", ";
        }
        args += ValueToString(arg, IrType::kI64);
      }
      if (instr.HasDst()) {
        out = StrFormat("%%%u = call fn%u(%s)", instr.dst, instr.callee, args.c_str());
      } else {
        out = StrFormat("call fn%u(%s)", instr.callee, args.c_str());
      }
      break;
    }
    case Opcode::kStore8:
      out = StrFormat("%s %s, [%s + %d]", OpcodeName(instr.op), value(instr.a).c_str(),
                      ValueToString(instr.b, IrType::kI64).c_str(), instr.disp);
      break;
    case Opcode::kLoad1:
    case Opcode::kLoad4:
    case Opcode::kLoad8:
      out = StrFormat("%%%u = %s [%s + %d]", instr.dst, OpcodeName(instr.op),
                      value(instr.a).c_str(), instr.disp);
      break;
    case Opcode::kSelect:
      out = StrFormat("%%%u = select %s, %s, %s", instr.dst, value(instr.a).c_str(),
                      value(instr.b).c_str(), value(instr.c).c_str());
      break;
    case Opcode::kSetTag:
      out = StrFormat("settag %s", value(instr.a).c_str());
      break;
    case Opcode::kGetTag:
      out = StrFormat("%%%u = gettag", instr.dst);
      break;
    default: {
      std::string operands = value(instr.a);
      if (!instr.b.IsNone()) {
        operands += ", " + value(instr.b);
      }
      if (instr.HasDst()) {
        out = StrFormat("%%%u = %s %s", instr.dst, OpcodeName(instr.op), operands.c_str());
      } else {
        out = StrFormat("%s %s", OpcodeName(instr.op), operands.c_str());
      }
      break;
    }
  }
  if (!instr.comment.empty()) {
    out += "  ; " + instr.comment;
  }
  return out;
}

IrListing PrintFunction(const IrFunction& function) {
  IrListing listing;
  std::string header = StrFormat("func %s(", function.name().c_str());
  for (uint8_t i = 0; i < function.num_args(); ++i) {
    header += StrFormat("%s%%%u", i ? ", " : "", i);
  }
  header += ") {";
  listing.lines.push_back({header, kNoIrId, kNoBlock});
  for (uint32_t b = 0; b < function.blocks().size(); ++b) {
    const IrBlock& block = function.block(b);
    listing.lines.push_back({block.name + ":", kNoIrId, b});
    for (const IrInstr& instr : block.instrs) {
      listing.lines.push_back({"  " + InstrToString(instr, function), instr.id, b});
    }
  }
  listing.lines.push_back({"}", kNoIrId, kNoBlock});
  return listing;
}

std::string IrListing::ToString() const {
  std::string out;
  for (const IrListingLine& line : lines) {
    out += line.text;
    out += '\n';
  }
  return out;
}

}  // namespace dfp
