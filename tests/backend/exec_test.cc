#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "src/backend/passes.h"
#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/printer.h"
#include "tests/testing/vcpu_harness.h"

namespace dfp {
namespace {

// f(a, b) = (a + b) * 3 - b.
void BuildSimple(IrFunction& fn) {
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t sum = b.Add(Value::Reg(0), Value::Reg(1));
  uint32_t scaled = b.Mul(Value::Reg(sum), Value::Imm(3));
  uint32_t result = b.Sub(Value::Reg(scaled), Value::Reg(1));
  b.Ret(Value::Reg(result));
}

TEST(BackendExec, SimpleArithmetic) {
  IrFunction fn("simple", 2);
  BuildSimple(fn);
  VcpuHarness harness;
  EXPECT_EQ(harness.CompileAndRun(fn, {10, 4}), 38u);
}

TEST(BackendExec, UnoptimizedMatchesOptimized) {
  IrFunction a("a", 2);
  BuildSimple(a);
  IrFunction b("b", 2);
  BuildSimple(b);
  VcpuHarness harness;
  CompileOptions no_opt;
  no_opt.optimize = false;
  EXPECT_EQ(harness.CompileAndRun(a, {123, 456}, no_opt), harness.CompileAndRun(b, {123, 456}));
}

// Loop summing n 64-bit values at base, with an in-loop conditional (skip odd values).
void BuildLoop(IrFunction& fn) {
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t head = b.CreateBlock("head");
  uint32_t body = b.CreateBlock("body");
  uint32_t add_block = b.CreateBlock("add");
  uint32_t cont = b.CreateBlock("cont");
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
  uint32_t odd = b.Binary(Opcode::kAnd, Value::Reg(value), Value::Imm(1));
  b.CondBr(Value::Reg(odd), cont, add_block);

  b.SetInsertPoint(add_block);
  b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(value));
  b.Br(cont);

  b.SetInsertPoint(cont);
  b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
  b.Br(head);

  b.SetInsertPoint(exit);
  b.Ret(Value::Reg(acc));
}

TEST(BackendExec, LoopWithBranches) {
  IrFunction fn("loop", 2);
  BuildLoop(fn);
  VcpuHarness harness;
  uint32_t region = harness.mem.CreateRegion("data", 4096);
  VAddr base = harness.mem.Alloc(region, 32 * 8);
  uint64_t expected = 0;
  for (uint64_t k = 0; k < 32; ++k) {
    harness.mem.Write<uint64_t>(base + k * 8, k * 3);
    if ((k * 3) % 2 == 0) {
      expected += k * 3;
    }
  }
  EXPECT_EQ(harness.CompileAndRun(fn, {base, 32}), expected);
}

TEST(BackendExec, RegisterPressureForcesSpillsButStaysCorrect) {
  // Compute sum of 24 live values: forces spilling with 12-13 allocatable registers.
  IrFunction fn("pressure", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  std::vector<uint32_t> values;
  for (int i = 0; i < 24; ++i) {
    values.push_back(b.Mul(Value::Reg(0), Value::Imm(i + 1)));
  }
  // Sum them in reverse so every value stays live until used.
  uint32_t acc = b.Const(0);
  for (int i = 23; i >= 0; --i) {
    b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(values[static_cast<size_t>(i)]));
  }
  b.Ret(Value::Reg(acc));

  CompileStats stats;
  CompileOptions options;
  IrFunction copy = fn;  // CompileFunction mutates; keep a pristine copy for the interpreter.
  EmittedFunction emitted = CompileFunction(copy, options, &stats);
  EXPECT_GT(stats.spilled_vregs, 0u);

  VcpuHarness harness;
  uint64_t compiled = harness.CompileAndRun(fn, {7});
  uint64_t expected = 0;
  for (int i = 1; i <= 24; ++i) {
    expected += 7ull * static_cast<uint64_t>(i);
  }
  EXPECT_EQ(compiled, expected);
}

TEST(BackendExec, ReservedTagRegisterStillCorrectAndSlower) {
  auto build = [](IrFunction& fn) {
    IrIdAllocator ids;
    IrBuilder b(&fn, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    std::vector<uint32_t> values;
    for (int i = 0; i < 16; ++i) {
      values.push_back(b.Add(Value::Reg(0), Value::Imm(i)));
    }
    uint32_t acc = b.Const(0);
    for (int i = 15; i >= 0; --i) {
      b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(values[static_cast<size_t>(i)]));
    }
    b.Ret(Value::Reg(acc));
  };
  IrFunction with_tag("with_tag", 1);
  build(with_tag);
  IrFunction without_tag("without_tag", 1);
  build(without_tag);

  VcpuHarness harness;
  CompileOptions reserve;
  reserve.reserve_tag_register = true;
  uint64_t r1 = harness.CompileAndRun(with_tag, {100}, reserve);
  uint64_t cycles_reserved = harness.last_cycles;
  uint64_t r2 = harness.CompileAndRun(without_tag, {100});
  uint64_t cycles_free = harness.last_cycles;
  EXPECT_EQ(r1, r2);
  EXPECT_GE(cycles_reserved, cycles_free);  // One register less can only hurt.
}

TEST(BackendExec, CallsBetweenCompiledFunctions) {
  VcpuHarness harness;
  // Callee: g(x) = x * x + 1.
  IrFunction callee("g", 1);
  {
    IrIdAllocator ids;
    IrBuilder b(&callee, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t sq = b.Mul(Value::Reg(0), Value::Reg(0));
    uint32_t r = b.Add(Value::Reg(sq), Value::Imm(1));
    b.Ret(Value::Reg(r));
  }
  uint32_t callee_id = harness.Compile(callee);

  // Caller: f(a, b) = g(a) + g(b) + b (checks caller registers survive the register window).
  IrFunction caller("f", 2);
  {
    IrIdAllocator ids;
    IrBuilder b(&caller, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t ga = b.Call(callee_id, {Value::Reg(0)}, /*has_result=*/true);
    uint32_t gb = b.Call(callee_id, {Value::Reg(1)}, /*has_result=*/true);
    uint32_t sum = b.Add(Value::Reg(ga), Value::Reg(gb));
    uint32_t total = b.Add(Value::Reg(sum), Value::Reg(1));
    b.Ret(Value::Reg(total));
  }
  uint32_t caller_id = harness.Compile(caller);
  EXPECT_EQ(harness.Run(caller_id, {3, 5}), (9u + 1) + (25u + 1) + 5);
}

TEST(BackendExec, HostFunctionCalls) {
  VcpuHarness harness;
  uint32_t host_segment = harness.code_map.AddHostSegment(SegmentKind::kKernel, "host_mul", 16);
  uint32_t host_id2 = harness.code_map.AddHostFunction(
      "host_mul", host_segment,
      [host_segment](Cpu& cpu, std::span<const uint64_t> args) -> uint64_t {
        cpu.HostWork(host_segment, 10);
        return args[0] * args[1];
      },
      2);

  IrFunction caller("f", 2);
  {
    IrIdAllocator ids;
    IrBuilder b(&caller, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t r = b.Call(host_id2, {Value::Reg(0), Value::Reg(1)}, /*has_result=*/true);
    b.Ret(Value::Reg(r));
  }
  uint32_t caller_id = harness.Compile(caller);
  EXPECT_EQ(harness.Run(caller_id, {6, 7}), 42u);
}

TEST(BackendExec, TagRegisterSurvivesCalls) {
  VcpuHarness harness;
  // Callee reads the global tag register.
  IrFunction callee("read_tag", 0);
  {
    IrIdAllocator ids;
    IrBuilder b(&callee, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t tag = b.GetTag();
    b.Ret(Value::Reg(tag));
  }
  CompileOptions reserve;
  reserve.reserve_tag_register = true;
  uint32_t callee_id = harness.Compile(callee, reserve);

  // Caller: set tag, call, restore, return callee's observation.
  IrFunction caller("set_and_call", 0);
  {
    IrIdAllocator ids;
    IrBuilder b(&caller, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t saved = b.GetTag();
    b.SetTag(Value::Imm(1234));
    uint32_t seen = b.Call(callee_id, {}, /*has_result=*/true);
    b.SetTag(Value::Reg(saved));
    b.Ret(Value::Reg(seen));
  }
  uint32_t caller_id = harness.Compile(caller, reserve);
  EXPECT_EQ(harness.Run(caller_id, {}), 1234u);
}

TEST(BackendExec, DebugInfoCoversAllInstructions) {
  IrFunction fn("loop", 2);
  BuildLoop(fn);
  CompileOptions options;
  EmittedFunction emitted = CompileFunction(fn, options);
  for (const MInstr& instr : emitted.code) {
    EXPECT_NE(instr.ir_id, kNoIrId);
  }
}

// f(x0, ..., x{n-1}) = ((x0 + x1) + x2) + ... + x{n-1}: each partial sum lives one step, each
// argument until its add.
IrFunction SumOfArguments(uint8_t n) {
  IrFunction fn("sum_args", n);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  Value sum = Value::Reg(0);
  for (uint32_t i = 1; i < n; ++i) {
    sum = Value::Reg(b.Add(sum, Value::Reg(i)));
  }
  b.Ret(sum);
  return fn;
}

// Arguments arrive in r0..rN and never move between registers: each stays in its arrival
// register or goes to its spill slot. Twelve arguments fill r0..r11; a thirteenth would arrive
// in a register the allocator does not hand out, so the backend refuses the function.
TEST(BackendExec, ArgumentsBeyondTheAllocatableRegistersAreRefused) {
  CompileOptions reserve;
  reserve.reserve_tag_register = true;  // The first partial sum then spills x11.
  IrFunction twelve = SumOfArguments(12);
  const EmittedFunction emitted = CompileFunction(twelve, reserve);
  EXPECT_EQ(emitted.code.front().op, Opcode::kStoreSpill);
  EXPECT_EQ(emitted.code.front().ra, 11);
  VcpuHarness harness;
  twelve = SumOfArguments(12);
  EXPECT_EQ(harness.CompileAndRun(twelve, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, reserve), 78u);
  IrFunction thirteen = SumOfArguments(13);
  EXPECT_DEATH(CompileFunction(thirteen, CompileOptions()), "DFP_CHECK");
}

// Edge operands of every computational opcode, with each result written out as a literal.
constexpr uint64_t kMin = uint64_t{1} << 63;  // INT64_MIN; also -0.0.
constexpr uint64_t kMax = kMin - 1;           // INT64_MAX.
constexpr uint64_t kAll = ~uint64_t{0};       // -1.
constexpr uint64_t kNegZero = kMin;
constexpr uint64_t kPosInf = 0x7FF0000000000000;
constexpr uint64_t kNegInf = 0xFFF0000000000000;
constexpr uint64_t kNaN = 0x7FF8000000000000;
constexpr uint64_t kOne = 0x3FF0000000000000;       // 1.0.
constexpr uint64_t kMinusOne = 0xBFF0000000000000;  // -1.0.
constexpr std::nullopt_t kTraps = std::nullopt;

struct OpRow {
  Opcode op;
  uint64_t a;
  uint64_t b;
  uint64_t c;                    // A select's else-value.
  std::optional<uint64_t> want;  // No value: the operation traps.
};

const OpRow kOpRows[] = {
    {Opcode::kConst, kMin, 0, 0, kMin},
    {Opcode::kMov, kAll, 0, 0, kAll},
    {Opcode::kAdd, kMax, 1, 0, kMin},
    {Opcode::kAdd, kMin, kAll, 0, kMax},
    {Opcode::kAdd, 1, kAll, 0, 0},
    {Opcode::kSub, kMin, 1, 0, kMax},
    {Opcode::kSub, 0, kMin, 0, kMin},
    {Opcode::kSub, 0, 1, 0, kAll},
    {Opcode::kMul, kMin, kAll, 0, kMin},
    {Opcode::kMul, kMax, kMax, 0, 1},
    {Opcode::kMul, kAll, kAll, 0, 1},
    {Opcode::kMul, kMin, 0, 0, 0},
    {Opcode::kDiv, kMin, kAll, 0, kTraps},
    {Opcode::kDiv, 1, 0, 0, kTraps},
    {Opcode::kDiv, kMin, 1, 0, kMin},
    {Opcode::kDiv, kMax, kAll, 0, kMin + 1},
    {Opcode::kDiv, kAll - 6, 2, 0, kAll - 2},  // -7 / 2 == -3: truncates toward zero.
    {Opcode::kDiv, 0, kAll, 0, 0},
    {Opcode::kRem, kMin, kAll, 0, kTraps},
    {Opcode::kRem, kAll, 0, 0, kTraps},
    {Opcode::kRem, kAll - 6, 2, 0, kAll},  // -7 % 2 == -1: takes the dividend's sign.
    {Opcode::kRem, 7, kAll - 1, 0, 1},     // 7 % -2 == 1.
    {Opcode::kRem, kMin, kMax, 0, kAll},
    {Opcode::kRem, kMax, kAll, 0, 0},
    {Opcode::kAnd, kMin, kAll, 0, kMin},
    {Opcode::kOr, kMin, kMax, 0, kAll},
    {Opcode::kXor, kAll, kMax, 0, kMin},
    {Opcode::kShl, 1, 0, 0, 1},
    {Opcode::kShl, 1, 63, 0, kMin},
    {Opcode::kShl, 1, 64, 0, 1},  // Shift counts are taken mod 64.
    {Opcode::kShl, kAll, 127, 0, kMin},
    {Opcode::kShr, kMin, 63, 0, 1},  // Logical: no sign fill.
    {Opcode::kShr, kMin, 64, 0, kMin},
    {Opcode::kShr, kAll, 127, 0, 1},
    {Opcode::kShr, kAll, 0, 0, kAll},
    {Opcode::kRotr, 1, 0, 0, 1},
    {Opcode::kRotr, 1, 63, 0, 2},
    {Opcode::kRotr, 1, 64, 0, 1},
    {Opcode::kRotr, kMin, 127, 0, 1},
    {Opcode::kNeg, 0, 0, 0, 0},
    {Opcode::kNeg, 1, 0, 0, kAll},
    {Opcode::kNeg, kMin, 0, 0, kMin},  // Wraps.
    {Opcode::kNeg, kMax, 0, 0, kMin + 1},
    {Opcode::kCmpEq, kMin, kMin, 0, 1},
    {Opcode::kCmpEq, 0, kAll, 0, 0},
    {Opcode::kCmpNe, 0, 0, 0, 0},
    {Opcode::kCmpNe, kMin, kMax, 0, 1},
    {Opcode::kCmpLt, kMin, kMax, 0, 1},  // Signed.
    {Opcode::kCmpLt, kAll, 0, 0, 1},
    {Opcode::kCmpLt, kMax, kMax, 0, 0},
    {Opcode::kCmpLe, kMax, kMax, 0, 1},
    {Opcode::kCmpLe, kMax, kMin, 0, 0},
    {Opcode::kCmpGt, 0, kAll, 0, 1},
    {Opcode::kCmpGt, kMin, kMax, 0, 0},
    {Opcode::kCmpGe, kMin, kMin, 0, 1},
    {Opcode::kCmpGe, kAll, 0, 0, 0},
    {Opcode::kFAdd, kNegZero, 0, 0, 0},
    {Opcode::kFAdd, kNegZero, kNegZero, 0, kNegZero},
    {Opcode::kFAdd, kPosInf, kOne, 0, kPosInf},
    {Opcode::kFAdd, kNaN, kOne, 0, kNaN},
    {Opcode::kFSub, 0, 0, 0, 0},
    {Opcode::kFSub, kNegZero, 0, 0, kNegZero},
    {Opcode::kFSub, kNegInf, kPosInf, 0, kNegInf},
    {Opcode::kFMul, kMinusOne, 0, 0, kNegZero},
    {Opcode::kFMul, kPosInf, kMinusOne, 0, kNegInf},
    {Opcode::kFMul, kNaN, 0, 0, kNaN},
    {Opcode::kFDiv, kOne, 0, 0, kPosInf},
    {Opcode::kFDiv, kOne, kNegZero, 0, kNegInf},
    {Opcode::kFDiv, kMinusOne, kPosInf, 0, kNegZero},
    {Opcode::kFNeg, 0, 0, 0, kNegZero},
    {Opcode::kFNeg, kNegInf, 0, 0, kPosInf},
    {Opcode::kFNeg, kNaN, 0, 0, kNaN | kMin},  // Flips the sign bit of a NaN too.
    {Opcode::kFCmpEq, 0, kNegZero, 0, 1},
    {Opcode::kFCmpEq, kNaN, kNaN, 0, 0},
    {Opcode::kFCmpNe, kNaN, kNaN, 0, 1},
    {Opcode::kFCmpNe, 0, kNegZero, 0, 0},
    {Opcode::kFCmpLt, kNegInf, kPosInf, 0, 1},
    {Opcode::kFCmpLt, kNaN, kOne, 0, 0},
    {Opcode::kFCmpLe, kNegZero, 0, 0, 1},
    {Opcode::kFCmpLe, kOne, kNaN, 0, 0},
    {Opcode::kFCmpGt, kPosInf, kOne, 0, 1},
    {Opcode::kFCmpGt, kNaN, kNegInf, 0, 0},
    {Opcode::kFCmpGe, kNegInf, kNegInf, 0, 1},
    {Opcode::kFCmpGe, kNaN, kNaN, 0, 0},
    {Opcode::kSiToFp, 0, 0, 0, 0},
    {Opcode::kSiToFp, kAll, 0, 0, kMinusOne},
    {Opcode::kSiToFp, kMin, 0, 0, 0xC3E0000000000000},  // -2^63.
    {Opcode::kSiToFp, kMax, 0, 0, 0x43E0000000000000},  // Rounds to 2^63.
    {Opcode::kCrc32, 0, 0, 0, 0},
    {Opcode::kCrc32, 0, kMin, 0, 0x82F63B78},             // The reflected polynomial.
    {Opcode::kCrc32, (uint64_t{7} << 32) | 1, 0, 0, 0x493C7D27},  // Seeds with a's low half.
    {Opcode::kCrc32, kAll, kAll, 0, 0xB798B438},
    {Opcode::kSelect, 1, 5, 7, 5},
    {Opcode::kSelect, 0, 5, 7, 7},
    {Opcode::kSelect, kMin, kMax, 0, kMax},
};

int Arity(Opcode op) {
  switch (op) {
    case Opcode::kConst:
    case Opcode::kMov:
    case Opcode::kNeg:
    case Opcode::kFNeg:
    case Opcode::kSiToFp:
      return 1;
    case Opcode::kSelect:
      return 3;
    default:
      return 2;
  }
}

// f(...) = op(operands), with the operands' number given by the opcode's arity.
IrFunction OneOp(Opcode op, const std::vector<Value>& operands, uint8_t num_args) {
  IrFunction fn(OpcodeName(op), num_args);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t result = 0;
  if (operands.size() == 3) {
    result = b.Select(operands[0], operands[1], operands[2]);
  } else if (operands.size() == 1) {
    result = b.Unary(op, operands[0]);
  } else {
    result = b.Binary(op, operands[0], operands[1]);
  }
  b.Ret(Value::Reg(result));
  return fn;
}

// Each row runs through EvalOp; through the constant folder on immediate operands; through the
// IR interpreter; and on the VCPU with its operands in registers, and with the second operand
// as an immediate, which takes the reg/imm fast paths. A trap is left in place by the folder and
// fails the interpreter's check; the VCPU side of a trap is Cpu.DivisionByZeroTraps.
TEST(BackendExec, EveryOpcodeHasOneMeaning) {
  VcpuHarness harness;
  CompileOptions unoptimized;  // Keeps each row's operation in the form it names.
  unoptimized.optimize = false;
  for (const OpRow& row : kOpRows) {
    SCOPED_TRACE(::testing::Message() << OpcodeName(row.op) << " " << row.a << ", " << row.b
                                      << ", " << row.c);
    EXPECT_EQ(EvalOp(row.op, row.a, row.b, row.c), row.want);

    const int arity = Arity(row.op);
    const uint64_t operands[] = {row.a, row.b, row.c};
    std::vector<Value> imms;
    std::vector<Value> regs;
    for (int i = 0; i < arity; ++i) {
      imms.push_back(Value::Imm(static_cast<int64_t>(operands[i])));
      regs.push_back(Value::Reg(static_cast<uint32_t>(i)));
    }
    IrFunction folded = OneOp(row.op, imms, 0);
    while (ConstantFoldPass(folded, nullptr) > 0) {
    }
    const IrInstr& first = folded.block(0).instrs[0];
    const std::span<const uint64_t> args(operands, static_cast<size_t>(arity));
    IrFunction fn = OneOp(row.op, regs, static_cast<uint8_t>(arity));
    VMem mem(1 << 12);
    if (!row.want.has_value()) {
      EXPECT_EQ(first.op, row.op);
      EXPECT_DEATH(InterpretIr(fn, args, mem), "DFP_CHECK");
      continue;
    }
    EXPECT_EQ(first.op, Opcode::kConst);
    EXPECT_EQ(static_cast<uint64_t>(first.a.imm), *row.want);
    EXPECT_EQ(InterpretIr(fn, args, mem), *row.want);
    EXPECT_EQ(harness.CompileAndRun(fn, {args.begin(), args.end()}, unoptimized), *row.want);
    if (arity == 2) {
      IrFunction with_imm = OneOp(row.op, {Value::Reg(0), imms[1]}, 1);
      EXPECT_EQ(harness.CompileAndRun(with_imm, {row.a}, unoptimized), *row.want);
    }
  }
}

}  // namespace
}  // namespace dfp
