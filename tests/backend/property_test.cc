// Property tests: for randomly generated VIR programs, the optimized + register-allocated +
// machine-lowered execution on the VCPU must compute exactly what the IR interpreter computes,
// under every compilation configuration.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/interp.h"
#include "src/util/random.h"
#include "tests/testing/vcpu_harness.h"

namespace dfp {
namespace {

// Generates a random function of `num_args` arguments: a mix of arithmetic over live values,
// memory traffic into a scratch buffer, and a reduction loop. Division is made safe by OR-ing
// divisors with 1.
IrFunction GenerateProgram(uint64_t seed, int size) {
  Random rng(seed);
  IrFunction fn("prog", 2);  // args: scratch buffer base, loop count
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t head = b.CreateBlock("head");
  uint32_t body = b.CreateBlock("body");
  uint32_t exit = b.CreateBlock("exit");

  b.SetInsertPoint(entry);
  std::vector<uint32_t> pool = {0, 1};
  pool.push_back(b.Const(rng.Uniform(-100, 100)));
  pool.push_back(b.Const(rng.Uniform(1, 1000)));

  auto pick = [&]() { return Value::Reg(pool[static_cast<size_t>(rng.Uniform(
                          0, static_cast<int64_t>(pool.size()) - 1))]); };

  // Straight-line section.
  for (int i = 0; i < size; ++i) {
    switch (rng.Uniform(0, 9)) {
      case 0:
        pool.push_back(b.Add(pick(), pick()));
        break;
      case 1:
        pool.push_back(b.Sub(pick(), pick()));
        break;
      case 2:
        pool.push_back(b.Mul(pick(), Value::Imm(rng.Uniform(-8, 8))));
        break;
      case 3: {
        uint32_t divisor = b.Binary(Opcode::kOr, pick(), Value::Imm(1));
        pool.push_back(b.Div(pick(), Value::Reg(divisor)));
        break;
      }
      case 4:
        pool.push_back(b.Binary(Opcode::kXor, pick(), pick()));
        break;
      case 5:
        pool.push_back(b.Binary(Opcode::kShr, pick(), Value::Imm(rng.Uniform(0, 63))));
        break;
      case 6:
        pool.push_back(b.Crc32(pick(), pick()));
        break;
      case 7: {
        uint32_t cond = b.CmpLt(pick(), pick());
        pool.push_back(b.Select(Value::Reg(cond), pick(), pick()));
        break;
      }
      case 8: {
        // Store then load back through the scratch buffer.
        int32_t slot = static_cast<int32_t>(rng.Uniform(0, 15)) * 8;
        b.Store(pick(), Value::Reg(0), slot);
        pool.push_back(b.Load(Opcode::kLoad8, Value::Reg(0), slot));
        break;
      }
      case 9:
        pool.push_back(b.Unary(Opcode::kNeg, pick()));
        break;
    }
  }
  uint32_t loop_acc = b.Const(0);
  uint32_t i = b.Const(0);
  b.Br(head);

  b.SetInsertPoint(head);
  uint32_t cond = b.CmpLt(Value::Reg(i), Value::Reg(1));
  b.CondBr(Value::Reg(cond), body, exit);

  b.SetInsertPoint(body);
  uint32_t mixed = b.Crc32(Value::Reg(loop_acc), pick());
  b.Assign(loop_acc, Opcode::kAdd, Value::Reg(mixed), Value::Reg(i));
  b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
  b.Br(head);

  b.SetInsertPoint(exit);
  // Fold the last few pool values into the result so most of the program is live.
  uint32_t result = loop_acc;
  for (size_t k = pool.size() >= 6 ? pool.size() - 6 : 0; k < pool.size(); ++k) {
    uint32_t next = b.Binary(Opcode::kXor, Value::Reg(result), Value::Reg(pool[k]));
    result = next;
  }
  b.Ret(Value::Reg(result));
  return fn;
}

struct PropertyCase {
  uint64_t seed;
  int size;
  bool optimize;
  bool reserve_tag;
};

class BackendProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(BackendProperty, CompiledMatchesInterpreted) {
  const PropertyCase& param = GetParam();
  IrFunction reference = GenerateProgram(param.seed, param.size);
  IrFunction compiled = GenerateProgram(param.seed, param.size);

  // Interpreter run on its own memory.
  VMem interp_mem(1 << 16);
  uint32_t interp_region = interp_mem.CreateRegion("scratch", 4096);
  VAddr interp_base = interp_mem.Alloc(interp_region, 256);
  uint64_t args[] = {interp_base, 13};
  uint64_t expected = InterpretIr(reference, args, interp_mem);

  // Compiled run on the VCPU with its own memory.
  VcpuHarness harness;
  uint32_t region = harness.mem.CreateRegion("scratch", 4096);
  VAddr base = harness.mem.Alloc(region, 256);
  CompileOptions options;
  options.optimize = param.optimize;
  options.reserve_tag_register = param.reserve_tag;
  uint64_t actual = harness.CompileAndRun(compiled, {base, 13}, options);

  EXPECT_EQ(actual, expected) << "seed=" << param.seed << " size=" << param.size
                              << " optimize=" << param.optimize
                              << " reserve=" << param.reserve_tag;

  // Memory effects must match, too.
  for (int slot = 0; slot < 16; ++slot) {
    EXPECT_EQ(harness.mem.Read<uint64_t>(base + static_cast<uint64_t>(slot) * 8),
              interp_mem.Read<uint64_t>(interp_base + static_cast<uint64_t>(slot) * 8))
        << "slot " << slot;
  }
}

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    for (int size : {5, 30, 120}) {
      cases.push_back({seed, size, true, false});
      cases.push_back({seed, size, true, true});
      cases.push_back({seed, size, false, false});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, BackendProperty, ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace dfp
