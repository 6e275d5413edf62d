#include <gtest/gtest.h>

#include "src/backend/passes.h"

#include "src/util/hash.h"
#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/ir/verifier.h"

namespace dfp {
namespace {

// Lineage listener that records events for assertions.
class RecordingLineage : public LineageListener {
 public:
  void OnRemove(uint32_t ir_id) override { removed.push_back(ir_id); }
  void OnAbsorb(uint32_t kept, uint32_t absorbed) override {
    absorbed_pairs.emplace_back(kept, absorbed);
  }

  std::vector<uint32_t> removed;
  std::vector<std::pair<uint32_t, uint32_t>> absorbed_pairs;
};

TEST(ConstantFold, FoldsAndPropagates) {
  IrFunction fn("f", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t two = b.Const(2);
  uint32_t three = b.Const(3);
  uint32_t sum = b.Add(Value::Reg(two), Value::Reg(three));      // Folds to 5.
  uint32_t prod = b.Mul(Value::Reg(sum), Value::Imm(10));        // Folds to 50.
  b.Ret(Value::Reg(prod));
  ConstantFoldPass(fn, nullptr);
  const IrInstr& folded = fn.block(0).instrs[3];
  EXPECT_EQ(folded.op, Opcode::kConst);
  EXPECT_EQ(folded.a.imm, 50);
  EXPECT_TRUE(VerifyFunction(fn).empty());
}

TEST(ConstantFold, DoesNotFoldDivisionByZero) {
  // Every operand pair the VCPU's division traps on, including INT64_MIN by -1.
  const struct {
    Opcode op;
    int64_t a;
    int64_t b;
  } traps[] = {{Opcode::kDiv, 10, 0},
               {Opcode::kRem, 10, 0},
               {Opcode::kDiv, INT64_MIN, -1},
               {Opcode::kRem, INT64_MIN, -1}};
  for (const auto& trap : traps) {
    IrFunction fn("f", 0);
    IrIdAllocator ids;
    IrBuilder b(&fn, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t q = b.Binary(trap.op, Value::Imm(trap.a), Value::Imm(trap.b));
    b.Ret(Value::Reg(q));
    ConstantFoldPass(fn, nullptr);
    EXPECT_EQ(fn.block(0).instrs[0].op, trap.op) << trap.a << ", " << trap.b;  // Trap preserved.
  }
}

TEST(ConstantFold, StopsAtRedefinition) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t x = b.Const(7);
  b.Assign(x, Opcode::kAdd, Value::Reg(0), Value::Imm(1));  // x redefined from runtime input.
  uint32_t use = b.Add(Value::Reg(x), Value::Imm(0));
  b.Ret(Value::Reg(use));
  ConstantFoldPass(fn, nullptr);
  // `use` must not have been folded to 7: x is no longer constant.
  EXPECT_NE(fn.block(0).instrs[2].op, Opcode::kConst);
  VMem mem(1 << 12);
  uint64_t args[] = {4};
  EXPECT_EQ(InterpretIr(fn, args, mem), 5u);
}

TEST(Combine, StrengthReducesMultiplyByPowerOfTwo) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t r = b.Mul(Value::Reg(0), Value::Imm(8));
  b.Ret(Value::Reg(r));
  CombineInstrsPass(fn, nullptr);
  EXPECT_EQ(fn.block(0).instrs[0].op, Opcode::kShl);
  EXPECT_EQ(fn.block(0).instrs[0].b.imm, 3);
  VMem mem(1 << 12);
  uint64_t args[] = {5};
  EXPECT_EQ(InterpretIr(fn, args, mem), 40u);
}

TEST(Combine, FoldsAddressArithmeticIntoDisplacement) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t addr = b.Add(Value::Reg(0), Value::Imm(16));
  uint32_t v = b.Load(Opcode::kLoad8, Value::Reg(addr), 8);
  b.Ret(Value::Reg(v));
  RecordingLineage lineage;
  CombineInstrsPass(fn, &lineage);
  const IrInstr& load = fn.block(0).instrs[1];
  EXPECT_EQ(load.a.vreg, 0u);
  EXPECT_EQ(load.disp, 24);
  ASSERT_EQ(lineage.absorbed_pairs.size(), 1u);
  EXPECT_EQ(lineage.absorbed_pairs[0].first, load.id);

  VMem mem(1 << 12);
  uint32_t region = mem.CreateRegion("d", 64);
  VAddr base = mem.Alloc(region, 40);
  mem.Write<uint64_t>(base + 24, 777);
  uint64_t args[] = {base};
  EXPECT_EQ(InterpretIr(fn, args, mem), 777u);
}

TEST(Combine, AddressFoldingRespectsRedefinition) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t addr = b.Add(Value::Reg(0), Value::Imm(16));
  b.Assign(0, Opcode::kAdd, Value::Reg(0), Value::Imm(100));  // Base redefined!
  uint32_t v = b.Load(Opcode::kLoad8, Value::Reg(addr), 0);
  b.Ret(Value::Reg(v));
  CombineInstrsPass(fn, nullptr);
  // Folding would read from the new base; it must not happen.
  EXPECT_EQ(fn.block(0).instrs[2].a.vreg, addr);
  EXPECT_EQ(fn.block(0).instrs[2].disp, 0);
}

TEST(Cse, EliminatesDuplicateHashes) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t h1 = b.EmitHash(Value::Reg(0));
  uint32_t h2 = b.EmitHash(Value::Reg(0));  // Identical computation.
  uint32_t sum = b.Add(Value::Reg(h1), Value::Reg(h2));
  b.Ret(Value::Reg(sum));
  RecordingLineage lineage;
  int changed = CommonSubexprPass(fn, &lineage);
  EXPECT_EQ(changed, 5);  // The whole second hash chain collapses to moves.
  EXPECT_EQ(lineage.absorbed_pairs.size(), 5u);
  VMem mem(1 << 12);
  uint64_t args[] = {12345};
  uint64_t h = HashKey(12345);
  EXPECT_EQ(InterpretIr(fn, args, mem), h + h);
}

TEST(Cse, RespectsOperandRedefinition) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t first = b.Add(Value::Reg(0), Value::Imm(1));
  b.Assign(0, Opcode::kAdd, Value::Reg(0), Value::Imm(50));
  uint32_t second = b.Add(Value::Reg(0), Value::Imm(1));  // Not a duplicate: arg changed.
  uint32_t sum = b.Add(Value::Reg(first), Value::Reg(second));
  b.Ret(Value::Reg(sum));
  CommonSubexprPass(fn, nullptr);
  VMem mem(1 << 12);
  uint64_t args[] = {10};
  EXPECT_EQ(InterpretIr(fn, args, mem), 11u + 61u);
}

TEST(Cse, ResultRegisterOverwriteInvalidatesAvailability) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t first = b.Add(Value::Reg(0), Value::Imm(1));
  b.Assign(first, Opcode::kMov, Value::Imm(0));  // Holder overwritten.
  uint32_t second = b.Add(Value::Reg(0), Value::Imm(1));
  uint32_t sum = b.Add(Value::Reg(first), Value::Reg(second));
  b.Ret(Value::Reg(sum));
  CommonSubexprPass(fn, nullptr);
  VMem mem(1 << 12);
  uint64_t args[] = {10};
  EXPECT_EQ(InterpretIr(fn, args, mem), 0u + 11u);
}

TEST(Dce, RemovesDeadCodeAndReports) {
  IrFunction fn("f", 1);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  uint32_t live = b.Add(Value::Reg(0), Value::Imm(1));
  b.Mul(Value::Reg(0), Value::Imm(3));  // Dead.
  b.EmitHash(Value::Reg(0));            // Dead chain of 5.
  b.Ret(Value::Reg(live));
  RecordingLineage lineage;
  int removed = DeadCodeElimPass(fn, &lineage);
  EXPECT_EQ(removed, 6);
  EXPECT_EQ(lineage.removed.size(), 6u);
  EXPECT_EQ(fn.InstrCount(), 2u);
}

TEST(Dce, KeepsStoresCallsAndLoopState) {
  IrFunction fn("f", 2);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t head = b.CreateBlock("head");
  uint32_t body = b.CreateBlock("body");
  uint32_t exit = b.CreateBlock("exit");
  b.SetInsertPoint(entry);
  uint32_t i = b.Const(0);
  b.Br(head);
  b.SetInsertPoint(head);
  uint32_t cond = b.CmpLt(Value::Reg(i), Value::Reg(1));
  b.CondBr(Value::Reg(cond), body, exit);
  b.SetInsertPoint(body);
  b.Store(Value::Reg(i), Value::Reg(0));
  b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
  b.Br(head);
  b.SetInsertPoint(exit);
  b.Ret(Value::Reg(i));
  size_t before = fn.InstrCount();
  DeadCodeElimPass(fn, nullptr);
  EXPECT_EQ(fn.InstrCount(), before);  // Everything is live.
}

TEST(Pipeline, PreservesSemanticsOnMixedFunction) {
  auto build = [](IrFunction& fn) {
    IrIdAllocator ids;
    IrBuilder b(&fn, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t base = b.Add(Value::Reg(0), Value::Imm(8));
    uint32_t x = b.Load(Opcode::kLoad8, Value::Reg(base), 0);
    uint32_t h1 = b.EmitHash(Value::Reg(x));
    uint32_t h2 = b.EmitHash(Value::Reg(x));
    uint32_t mixed = b.Binary(Opcode::kXor, Value::Reg(h1), Value::Reg(h2));
    uint32_t scaled = b.Mul(Value::Reg(mixed), Value::Imm(16));
    uint32_t c = b.Add(Value::Imm(2), Value::Imm(5));
    uint32_t result = b.Add(Value::Reg(scaled), Value::Reg(c));
    b.EmitHash(Value::Reg(result));  // Dead.
    b.Ret(Value::Reg(result));
  };
  IrFunction plain("plain", 1);
  build(plain);
  IrFunction optimized("optimized", 1);
  build(optimized);
  RunOptimizationPipeline(optimized, nullptr);
  EXPECT_LT(optimized.InstrCount(), plain.InstrCount());
  EXPECT_TRUE(VerifyFunction(optimized).empty());

  VMem mem(1 << 12);
  uint32_t region = mem.CreateRegion("d", 64);
  VAddr addr = mem.Alloc(region, 16);
  mem.Write<uint64_t>(addr + 8, 987654321);
  uint64_t args[] = {addr};
  EXPECT_EQ(InterpretIr(plain, args, mem), InterpretIr(optimized, args, mem));
}

}  // namespace
}  // namespace dfp
