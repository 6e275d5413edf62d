#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/util/hash.h"

namespace dfp {
namespace {

// Builds: f(a, b) = (a + b) * 2 - a / b  (b != 0).
IrFunction BuildArithmetic() {
  IrFunction fn("arith", 2);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t sum = b.Add(Value::Reg(0), Value::Reg(1));
  uint32_t twice = b.Mul(Value::Reg(sum), Value::Imm(2));
  uint32_t quot = b.Div(Value::Reg(0), Value::Reg(1));
  uint32_t result = b.Sub(Value::Reg(twice), Value::Reg(quot));
  b.Ret(Value::Reg(result));
  return fn;
}

TEST(IrInterp, Arithmetic) {
  IrFunction fn = BuildArithmetic();
  VMem mem(1 << 16);
  uint64_t args[] = {10, 3};
  EXPECT_EQ(InterpretIr(fn, args, mem), static_cast<uint64_t>((10 + 3) * 2 - 10 / 3));
}

TEST(IrInterp, LoopSumsArray) {
  // f(base, n) = sum of n int64 values at base.
  IrFunction fn("sum", 2);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t head = b.CreateBlock("head");
  uint32_t body = b.CreateBlock("body");
  uint32_t exit = b.CreateBlock("exit");

  b.SetInsertPoint(entry);
  uint32_t i = b.Const(0);
  uint32_t acc = b.Const(0);
  b.Br(head);

  b.SetInsertPoint(head);
  uint32_t cond = b.CmpLt(Value::Reg(i), Value::Reg(1));
  b.CondBr(Value::Reg(cond), body, exit);

  b.SetInsertPoint(body);
  uint32_t offset = b.Mul(Value::Reg(i), Value::Imm(8));
  uint32_t addr = b.Add(Value::Reg(0), Value::Reg(offset));
  uint32_t value = b.Load(Opcode::kLoad8, Value::Reg(addr));
  // Non-SSA: write back into the accumulator and counter registers.
  b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(value));
  b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
  b.Br(head);

  b.SetInsertPoint(exit);
  b.Ret(Value::Reg(acc));

  VMem mem(1 << 16);
  uint32_t region = mem.CreateRegion("data", 4096);
  VAddr base = mem.Alloc(region, 10 * 8);
  uint64_t expected = 0;
  for (uint64_t k = 0; k < 10; ++k) {
    mem.Write<uint64_t>(base + k * 8, k * k);
    expected += k * k;
  }
  uint64_t args[] = {base, 10};
  EXPECT_EQ(InterpretIr(fn, args, mem), expected);
}

TEST(IrInterp, CallsGoThroughEnvironment) {
  IrFunction fn("caller", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t doubled = b.Call(7, {Value::Reg(0), Value::Imm(2)}, /*has_result=*/true);
  b.Ret(Value::Reg(doubled));

  VMem mem(1 << 16);
  IrInterpEnv env;
  env.call = [](uint32_t callee, std::span<const uint64_t> args) -> uint64_t {
    EXPECT_EQ(callee, 7u);
    return args[0] * args[1];
  };
  uint64_t args[] = {21};
  EXPECT_EQ(InterpretIr(fn, args, mem, &env), 42u);
}

TEST(IrInterp, TagRegisterSemantics) {
  IrFunction fn("tags", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t saved = b.GetTag();
  b.SetTag(Value::Imm(42));
  uint32_t current = b.GetTag();
  b.SetTag(Value::Reg(saved));
  b.Ret(Value::Reg(current));
  VMem mem(1 << 16);
  IrInterpEnv env;
  env.tag = 7;
  EXPECT_EQ(InterpretIr(fn, {}, mem, &env), 42u);
  EXPECT_EQ(env.tag, 7u);  // Restored.
}

TEST(IrInterp, Crc32MatchesHost) {
  IrFunction fn("crc", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t hash = b.EmitHash(Value::Reg(0));
  b.Ret(Value::Reg(hash));
  VMem mem(1 << 16);
  for (uint64_t key : {0ull, 1ull, 123456789ull, ~0ull}) {
    uint64_t args[] = {key};
    EXPECT_EQ(InterpretIr(fn, args, mem), HashKey(key)) << key;
  }
}

TEST(IrInterp, SelectAndNarrowMemory) {
  IrFunction fn("narrow", 2);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  // Store a negative value, reload its low 32 bits sign-extended, select on comparison with
  // arg1.
  b.Store(Value::Imm(-5), Value::Reg(0));
  uint32_t loaded = b.Load(Opcode::kLoad4, Value::Reg(0));
  uint32_t is_neg = b.CmpLt(Value::Reg(loaded), Value::Imm(0));
  uint32_t result = b.Select(Value::Reg(is_neg), Value::Reg(1), Value::Imm(0));
  b.Ret(Value::Reg(result));
  VMem mem(1 << 16);
  uint32_t region = mem.CreateRegion("data", 64);
  VAddr addr = mem.Alloc(region, 8);
  uint64_t args[] = {addr, 99};
  EXPECT_EQ(InterpretIr(fn, args, mem), 99u);
  EXPECT_EQ(mem.Read<int32_t>(addr), -5);
}

}  // namespace
}  // namespace dfp
