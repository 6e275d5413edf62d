#include "src/ir/builder.h"

#include <bit>

#include "src/util/hash.h"

namespace dfp {

Value Value::ImmF(double value) { return Imm(std::bit_cast<int64_t>(value)); }

IrInstr& IrBuilder::Append(IrInstr instr) {
  instr.id = ids_->Next();
  IrBlock& block = function_->block(current_block_);
  DFP_CHECK(!block.IsTerminated());
  block.instrs.push_back(std::move(instr));
  IrInstr& appended = block.instrs.back();
  if (observer_) {
    observer_(appended);
  }
  return appended;
}

uint32_t IrBuilder::Const(int64_t value, uint32_t literal_slot) {
  IrInstr instr;
  instr.op = Opcode::kConst;
  instr.dst = function_->NewReg();
  instr.a = Value::Param(value, literal_slot);
  return Append(std::move(instr)).dst;
}

uint32_t IrBuilder::ConstF(double value, uint32_t literal_slot) {
  IrInstr instr;
  instr.op = Opcode::kConst;
  instr.type = IrType::kF64;
  instr.dst = function_->NewReg();
  instr.a = Value::Param(std::bit_cast<int64_t>(value), literal_slot);
  return Append(std::move(instr)).dst;
}

uint32_t IrBuilder::Unary(Opcode op, Value a, IrType type) {
  IrInstr instr;
  instr.op = op;
  instr.type = type;
  instr.dst = function_->NewReg();
  instr.a = a;
  return Append(std::move(instr)).dst;
}

uint32_t IrBuilder::Binary(Opcode op, Value a, Value b, IrType type) {
  IrInstr instr;
  instr.op = op;
  instr.type = type;
  instr.dst = function_->NewReg();
  instr.a = a;
  instr.b = b;
  return Append(std::move(instr)).dst;
}

uint32_t IrBuilder::Crc32(Value seed, Value value) {
  return Binary(Opcode::kCrc32, seed, value);
}

uint32_t IrBuilder::Select(Value cond, Value a, Value b, IrType type) {
  IrInstr instr;
  instr.op = Opcode::kSelect;
  instr.type = type;
  instr.dst = function_->NewReg();
  instr.a = cond;
  instr.b = a;
  instr.c = b;
  return Append(std::move(instr)).dst;
}

uint32_t IrBuilder::Load(Opcode op, Value addr, int32_t disp, std::string comment) {
  DFP_CHECK(IsLoad(op));
  IrInstr instr;
  instr.op = op;
  instr.dst = function_->NewReg();
  instr.a = addr;
  instr.disp = disp;
  instr.comment = std::move(comment);
  return Append(std::move(instr)).dst;
}

void IrBuilder::Store(Value value, Value addr, int32_t disp, std::string comment) {
  IrInstr instr;
  instr.op = Opcode::kStore8;
  instr.a = value;
  instr.b = addr;
  instr.disp = disp;
  instr.comment = std::move(comment);
  Append(std::move(instr));
}

void IrBuilder::Br(uint32_t target) {
  IrInstr instr;
  instr.op = Opcode::kBr;
  instr.target0 = target;
  Append(std::move(instr));
}

void IrBuilder::CondBr(Value cond, uint32_t if_true, uint32_t if_false) {
  IrInstr instr;
  instr.op = Opcode::kCondBr;
  instr.a = cond;
  instr.target0 = if_true;
  instr.target1 = if_false;
  Append(std::move(instr));
}

uint32_t IrBuilder::Call(uint32_t callee, std::vector<Value> args, bool has_result,
                         std::string comment) {
  IrInstr instr;
  instr.op = Opcode::kCall;
  instr.callee = callee;
  instr.args = std::move(args);
  instr.comment = std::move(comment);
  if (has_result) {
    instr.dst = function_->NewReg();
  }
  return Append(std::move(instr)).dst;
}

void IrBuilder::Ret(Value value) {
  IrInstr instr;
  instr.op = Opcode::kRet;
  instr.a = value;
  Append(std::move(instr));
}

uint32_t IrBuilder::GetTag() {
  IrInstr instr;
  instr.op = Opcode::kGetTag;
  instr.dst = function_->NewReg();
  return Append(std::move(instr)).dst;
}

void IrBuilder::SetTag(Value value) {
  IrInstr instr;
  instr.op = Opcode::kSetTag;
  instr.a = value;
  Append(std::move(instr));
}

void IrBuilder::Assign(uint32_t dst, Opcode op, Value a, Value b, IrType type) {
  IrInstr instr;
  instr.op = op;
  instr.type = type;
  instr.dst = dst;
  instr.a = a;
  instr.b = b;
  Append(std::move(instr));
}

void IrBuilder::Copy(uint32_t dst, Value src, IrType type) {
  Assign(dst, Opcode::kMov, src, Value::None(), type);
}

uint32_t IrBuilder::EmitHash(Value key) {
  uint32_t lane1 = Crc32(Value::Imm(static_cast<int64_t>(kHashSeed1)), key);
  uint32_t lane2 = Crc32(Value::Imm(static_cast<int64_t>(kHashSeed2)), key);
  uint32_t rotated = Binary(Opcode::kRotr, Value::Reg(lane2), Value::Imm(32));
  uint32_t mixed = Binary(Opcode::kXor, Value::Reg(lane1), Value::Reg(rotated));
  return Binary(Opcode::kMul, Value::Reg(mixed), Value::Imm(static_cast<int64_t>(kHashMultiplier)));
}

void IrBuilder::AnnotateLast(std::string comment) {
  IrBlock& block = function_->block(current_block_);
  DFP_CHECK(!block.instrs.empty());
  block.instrs.back().comment = std::move(comment);
}

}  // namespace dfp
