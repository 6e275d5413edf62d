#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/ir/builder.h"
#include "tests/testing/vcpu_harness.h"

namespace dfp {
namespace {

// Simple counted loop of `n` iterations with one load per iteration.
IrFunction CountedLoop() {
  IrFunction fn("loop", 2);  // (base, n)
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
  uint32_t more = b.CmpLt(Value::Reg(i), Value::Reg(1));
  b.CondBr(Value::Reg(more), body, exit);
  b.SetInsertPoint(body);
  uint32_t off = b.Binary(Opcode::kShl, Value::Reg(i), Value::Imm(3));
  uint32_t addr = b.Add(Value::Reg(0), Value::Reg(off));
  uint32_t v = b.Load(Opcode::kLoad8, Value::Reg(addr));
  b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(v));
  b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
  b.Br(head);
  b.SetInsertPoint(exit);
  b.Ret(Value::Reg(acc));
  return fn;
}

TEST(Cpu, CountsEventsAndCycles) {
  VcpuHarness harness;
  uint32_t region = harness.mem.CreateRegion("data", 1 << 16);
  VAddr base = harness.mem.Alloc(region, 1000 * 8);
  IrFunction fn = CountedLoop();
  harness.CompileAndRun(fn, {base, 1000});
  EXPECT_GT(harness.last_cycles, 1000u);
  EXPECT_GE(harness.pmu.counters()[PmuEvent::kLoads], 1000u);
  EXPECT_GT(harness.pmu.counters()[PmuEvent::kInstrRetired], 5000u);
  // Sequential 8-byte loads: one L1 miss per 64-byte line.
  EXPECT_NEAR(static_cast<double>(harness.pmu.counters()[PmuEvent::kL1Miss]), 125.0, 8.0);
}

TEST(Cpu, SamplesArriveAtPeriodWithCorrectIps) {
  VcpuHarness harness;
  SamplingConfig config;
  config.enabled = true;
  config.period = 97;
  harness.pmu.Configure(config);
  uint32_t region = harness.mem.CreateRegion("data", 1 << 16);
  VAddr base = harness.mem.Alloc(region, 500 * 8);
  IrFunction fn = CountedLoop();
  uint32_t fn_id = harness.Compile(fn);
  Cpu cpu(harness.mem, harness.code_map, harness.pmu);
  uint64_t args[] = {base, 500};
  cpu.CallFunction(fn_id, args);
  const std::vector<Sample>& samples = harness.pmu.samples();
  ASSERT_GT(samples.size(), 20u);
  const CodeSegment& segment = harness.code_map.segment(0);
  for (const Sample& sample : samples) {
    EXPECT_GE(sample.ip, segment.base_ip);
    EXPECT_LT(sample.ip, segment.base_ip + segment.code.size());
  }
  // Instruction count / period samples (+-1 for boundary effects).
  uint64_t instr = cpu.stats().instructions;
  EXPECT_NEAR(static_cast<double>(samples.size()), static_cast<double>(instr / 97), 2.0);
}

TEST(Cpu, CallStackCaptureWalksFrames) {
  VcpuHarness harness;
  // inner(x) = x + 1; outer(x) = inner(x) * 2.
  IrFunction inner("inner", 1);
  {
    IrIdAllocator ids;
    IrBuilder b(&inner, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    // Burn instructions so samples land inside.
    uint32_t acc = b.Const(0);
    for (int i = 0; i < 50; ++i) {
      b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Reg(0));
    }
    uint32_t r = b.Add(Value::Reg(acc), Value::Imm(1));
    b.Ret(Value::Reg(r));
  }
  uint32_t inner_id = harness.Compile(inner);
  IrFunction outer("outer", 1);
  {
    IrIdAllocator ids;
    IrBuilder b(&outer, &ids);
    b.SetInsertPoint(b.CreateBlock("entry"));
    uint32_t r = b.Call(inner_id, {Value::Reg(0)}, true);
    uint32_t doubled = b.Mul(Value::Reg(r), Value::Imm(2));
    b.Ret(Value::Reg(doubled));
  }
  uint32_t outer_id = harness.Compile(outer);

  SamplingConfig config;
  config.enabled = true;
  config.period = 7;
  config.capture_callstack = true;
  harness.pmu.Configure(config);
  Cpu cpu(harness.mem, harness.code_map, harness.pmu);
  uint64_t args[] = {5};
  // inner: acc = 50 * x, returns acc + 1; outer doubles it.
  EXPECT_EQ(cpu.CallFunction(outer_id, args), 2u * (50 * 5 + 1));
  const CodeSegment& outer_segment = harness.code_map.segment(
      harness.code_map.function(outer_id).segment);
  bool saw_inner_sample_with_outer_frame = false;
  for (const Sample& sample : harness.pmu.samples()) {
    const CodeSegment* segment = harness.code_map.FindByIp(sample.ip);
    if (segment != nullptr && segment->name == "inner" && !sample.callstack.empty()) {
      const CodeSegment* caller = harness.code_map.FindByIp(sample.callstack[0]);
      ASSERT_NE(caller, nullptr);
      EXPECT_EQ(caller->id, outer_segment.id);
      // The call site IP must hold a call instruction.
      EXPECT_EQ(caller->code[sample.callstack[0] - caller->base_ip].op, Opcode::kCall);
      saw_inner_sample_with_outer_frame = true;
    }
  }
  EXPECT_TRUE(saw_inner_sample_with_outer_frame);
}

TEST(Cpu, BranchMispredictionsCostCycles) {
  // Alternating branch outcomes vs. constant outcomes over the same instruction count.
  auto build = [](bool alternating) {
    IrFunction fn(alternating ? "alt" : "stable", 1);
    IrIdAllocator ids;
    IrBuilder b(&fn, &ids);
    uint32_t entry = b.CreateBlock("entry");
    uint32_t head = b.CreateBlock("head");
    uint32_t body = b.CreateBlock("body");
    uint32_t then_block = b.CreateBlock("then");
    uint32_t cont = b.CreateBlock("cont");
    uint32_t exit = b.CreateBlock("exit");
    b.SetInsertPoint(entry);
    uint32_t i = b.Const(0);
    uint32_t acc = b.Const(0);
    b.Br(head);
    b.SetInsertPoint(head);
    uint32_t more = b.CmpLt(Value::Reg(i), Value::Imm(2000));
    b.CondBr(Value::Reg(more), body, exit);
    b.SetInsertPoint(body);
    uint32_t bit = alternating ? b.Binary(Opcode::kAnd, Value::Reg(i), Value::Imm(1))
                               : b.Binary(Opcode::kAnd, Value::Reg(i), Value::Imm(0));
    b.CondBr(Value::Reg(bit), then_block, cont);
    b.SetInsertPoint(then_block);
    b.Assign(acc, Opcode::kAdd, Value::Reg(acc), Value::Imm(1));
    b.Br(cont);
    b.SetInsertPoint(cont);
    b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
    b.Br(head);
    b.SetInsertPoint(exit);
    b.Ret(Value::Reg(acc));
    return fn;
  };
  VcpuHarness harness;
  IrFunction alternating = build(true);
  harness.CompileAndRun(alternating, {0});
  uint64_t alternating_cycles = harness.last_cycles;
  uint64_t alternating_misses = harness.pmu.counters()[PmuEvent::kBranchMiss];

  VcpuHarness harness2;
  IrFunction stable = build(false);
  harness2.CompileAndRun(stable, {0});
  uint64_t stable_misses = harness2.pmu.counters()[PmuEvent::kBranchMiss];

  EXPECT_GT(alternating_misses, 900u);  // ~1000 mispredictions of the alternating branch.
  EXPECT_LT(stable_misses, 50u);
  // The alternating variant executes ~1000 extra adds but pays far more in penalties.
  EXPECT_GT(alternating_cycles, harness2.last_cycles + 10000);
}

TEST(Cpu, HostWorkEmitsSamplesInSegmentRange) {
  VcpuHarness harness;
  uint32_t segment = harness.code_map.AddHostSegment(SegmentKind::kKernel, "k", 32);
  SamplingConfig config;
  config.enabled = true;
  config.period = 100;
  harness.pmu.Configure(config);
  Cpu cpu(harness.mem, harness.code_map, harness.pmu);
  cpu.HostWork(segment, 10000);
  EXPECT_EQ(cpu.stats().instructions, 10000u);
  const std::vector<Sample>& samples = harness.pmu.samples();
  EXPECT_NEAR(static_cast<double>(samples.size()), 100.0, 12.0);
  const CodeSegment& seg = harness.code_map.segment(segment);
  std::set<uint64_t> distinct_ips;
  for (const Sample& sample : samples) {
    EXPECT_GE(sample.ip, seg.base_ip);
    EXPECT_LT(sample.ip, seg.base_ip + seg.virtual_size);
    distinct_ips.insert(sample.ip);
  }
  EXPECT_GT(distinct_ips.size(), 5u);  // Synthetic IPs rotate through the range.
}

// A division the VCPU cannot compute fails its check instead of reaching the host's divide.
TEST(Cpu, DivisionByZeroTraps) {
  const auto run = [](Opcode op, uint64_t a, uint64_t b) {
    IrFunction fn("div", 2);
    IrIdAllocator ids;
    IrBuilder builder(&fn, &ids);
    builder.SetInsertPoint(builder.CreateBlock("entry"));
    builder.Ret(Value::Reg(builder.Binary(op, Value::Reg(0), Value::Reg(1))));
    VcpuHarness harness;
    return harness.CompileAndRun(fn, {a, b});
  };
  const uint64_t int64_min = uint64_t{1} << 63;
  const uint64_t minus_one = ~uint64_t{0};
  EXPECT_EQ(run(Opcode::kDiv, 10, 2), 5u);
  EXPECT_DEATH(run(Opcode::kDiv, 10, 0), "DFP_CHECK");
  EXPECT_DEATH(run(Opcode::kRem, 10, 0), "DFP_CHECK");
  EXPECT_DEATH(run(Opcode::kDiv, int64_min, minus_one), "DFP_CHECK");
  EXPECT_DEATH(run(Opcode::kRem, int64_min, minus_one), "DFP_CHECK");
}

MInstr SetR0() {
  MInstr set_r0;
  set_r0.op = Opcode::kConst;
  set_r0.dst = 0;
  set_r0.a_is_imm = true;
  set_r0.imm = 7;
  return set_r0;
}

MInstr Ret(uint8_t reg) {
  MInstr ret;
  ret.op = Opcode::kRet;
  ret.ra = reg;
  return ret;
}

// Registers hand-built machine code as a function and runs it on a fresh VCPU.
void RunHandBuilt(std::vector<MInstr> code) {
  VcpuHarness harness;
  const uint32_t segment =
      harness.code_map.AddSegment(SegmentKind::kGenerated, "hand_built", std::move(code));
  harness.Run(harness.code_map.AddFunction("hand_built", segment, 0, 0, 0), {});
}

TEST(Cpu, RunningOffTheEndOfASegmentDies) {
  const MInstr set_r0 = SetR0();
  const MInstr ret = Ret(0);
  // Control reaches the end without a terminator: the fetch past the last instruction dies.
  EXPECT_DEATH(RunHandBuilt({set_r0, set_r0}), "DFP_CHECK");
  // A branch past the end of the segment dies at the target's fetch.
  MInstr branch;
  branch.op = Opcode::kBr;
  branch.target0 = 3;
  EXPECT_DEATH(RunHandBuilt({set_r0, branch, ret}), "DFP_CHECK");
  // The same code with an in-range target runs to its return.
  branch.target0 = 2;
  VcpuHarness harness;
  const uint32_t segment =
      harness.code_map.AddSegment(SegmentKind::kGenerated, "ok", {set_r0, branch, ret});
  EXPECT_EQ(harness.Run(harness.code_map.AddFunction("ok", segment, 0, 0, 0), {}), 7u);
}

// Machine code is checked when it is registered: what the VCPU cannot execute never runs.
TEST(Cpu, RegisterIndexPastR15IsRefused) {
  MInstr add;
  add.op = Opcode::kAdd;
  add.dst = 1;
  add.ra = 0;
  add.rb = 0;
  RunHandBuilt({SetR0(), add, Ret(1)});
  add.dst = kNumPhysRegs;  // Would land in the frame past its register file.
  EXPECT_DEATH(RunHandBuilt({SetR0(), add, Ret(1)}), "DFP_CHECK");
  add.dst = 1;
  add.rb = 200;
  EXPECT_DEATH(RunHandBuilt({SetR0(), add, Ret(1)}), "DFP_CHECK");
  MInstr select;
  select.op = Opcode::kSelect;
  select.dst = 1;
  select.ra = 0;
  select.rb = 0;
  select.rc = kNumPhysRegs + 1;
  EXPECT_DEATH(RunHandBuilt({SetR0(), select, Ret(1)}), "DFP_CHECK");
  MInstr call;
  call.op = Opcode::kCall;
  call.callee = 0;
  call.args = {{MArg::Kind::kReg, kNumPhysRegs}};
  EXPECT_DEATH(RunHandBuilt({call, Ret(0)}), "DFP_CHECK");
}

TEST(Cpu, CallWithMoreThan16ArgumentsIsRefused) {
  MInstr call;
  call.op = Opcode::kCall;
  call.callee = 0;
  call.args.resize(kNumPhysRegs + 1, {MArg::Kind::kImm, 1});
  EXPECT_DEATH(RunHandBuilt({call, Ret(0)}), "DFP_CHECK");
}

TEST(Cpu, ImmediateAddressIsRefused) {
  MInstr load;
  load.op = Opcode::kLoad8;
  load.dst = 1;
  load.a_is_imm = true;
  load.imm = 4096;
  EXPECT_DEATH(RunHandBuilt({load, Ret(1)}), "DFP_CHECK");
  MInstr store;
  store.op = Opcode::kStore8;
  store.ra = 0;
  store.b_is_imm = true;
  store.imm = 4096;
  EXPECT_DEATH(RunHandBuilt({SetR0(), store, Ret(0)}), "DFP_CHECK");
}

TEST(Cpu, ImmediateStoredValueIsRefused) {
  MInstr store;
  store.op = Opcode::kStore8;
  store.a_is_imm = true;
  store.imm = 5;
  store.rb = 0;
  EXPECT_DEATH(RunHandBuilt({SetR0(), store, Ret(0)}), "DFP_CHECK");
  MInstr spill;
  spill.op = Opcode::kStoreSpill;
  spill.a_is_imm = true;
  spill.imm = 5;
  EXPECT_DEATH(RunHandBuilt({spill, Ret(0)}), "DFP_CHECK");
}

TEST(Cpu, ImmediateBranchConditionIsRefused) {
  MInstr branch;
  branch.op = Opcode::kCondBr;
  branch.a_is_imm = true;
  branch.imm = 1;
  branch.target0 = 2;
  branch.target1 = 2;
  EXPECT_DEATH(RunHandBuilt({SetR0(), branch, Ret(0)}), "DFP_CHECK");
  branch.a_is_imm = false;
  branch.ra = 0;
  RunHandBuilt({SetR0(), branch, Ret(0)});
}

// The tag register is global across frames: Register Tagging's samples taken in a callee must
// see the caller's tag, and a tag set in a callee must survive the return.
class TagRegisterTest : public ::testing::Test {
 protected:
  uint32_t Add(const std::string& name, std::vector<MInstr> code, uint8_t num_args = 0) {
    const uint32_t segment =
        harness_.code_map.AddSegment(SegmentKind::kGenerated, name, std::move(code));
    return harness_.code_map.AddFunction(name, segment, 0, 0, num_args);
  }

  static MInstr SetTag(int64_t tag) {
    MInstr set;
    set.op = Opcode::kSetTag;
    set.a_is_imm = true;
    set.imm = tag;
    set.is_tag = true;
    return set;
  }

  static MInstr GetTag(uint8_t dst) {
    MInstr get;
    get.op = Opcode::kGetTag;
    get.dst = dst;
    get.is_tag = true;
    return get;
  }

  static MInstr Call(uint32_t callee, std::vector<MArg> args = {}) {
    MInstr call;
    call.op = Opcode::kCall;
    call.callee = callee;
    call.args = std::move(args);
    return call;
  }

  VcpuHarness harness_;
};

TEST_F(TagRegisterTest, CalleeTagIsVisibleToCallerAfterReturn) {
  const uint32_t callee = Add("callee", {SetTag(55), Ret(kNoPhysReg)});
  const uint32_t caller = Add("caller", {SetTag(5), Call(callee), GetTag(0), Ret(0)});
  EXPECT_EQ(harness_.Run(caller, {}), 55u);
}

TEST_F(TagRegisterTest, TagSetThroughHostReentryIsVisibleToCaller) {
  const uint32_t setter = Add("setter", {SetTag(77), Ret(kNoPhysReg)});
  const uint32_t host_segment =
      harness_.code_map.AddHostSegment(SegmentKind::kKernel, "reenter", 8);
  const uint32_t host = harness_.code_map.AddHostFunction(
      "reenter", host_segment,
      [setter](Cpu& cpu, std::span<const uint64_t>) { return cpu.CallFunction(setter, {}); },
      0);
  const uint32_t caller = Add("caller", {SetTag(5), Call(host), GetTag(0), Ret(0)});
  EXPECT_EQ(harness_.Run(caller, {}), 77u);
}

TEST_F(TagRegisterTest, SixteenArgumentCallKeepsTheTag) {
  std::vector<MArg> args;
  for (uint64_t i = 0; i < kNumPhysRegs; ++i) {
    args.push_back({MArg::Kind::kImm, 1000 + i});
  }
  // The callee returns its tag plus its r15, which the tag occupies, not the 16th argument.
  MInstr sum;
  sum.op = Opcode::kAdd;
  sum.dst = 0;
  sum.ra = 1;
  sum.rb = kTagReg;
  const uint32_t callee = Add("callee", {GetTag(1), sum, Ret(0)}, kNumPhysRegs);
  MInstr call = Call(callee, args);
  call.dst = 2;
  MInstr result;
  result.op = Opcode::kMul;
  result.dst = 0;
  result.ra = 2;
  result.b_is_imm = true;
  result.imm = 1000;
  MInstr plus_tag;
  plus_tag.op = Opcode::kAdd;
  plus_tag.dst = 0;
  plus_tag.ra = 0;
  plus_tag.rb = 3;
  const uint32_t caller =
      Add("caller", {SetTag(9), call, result, GetTag(3), plus_tag, Ret(0)});
  EXPECT_EQ(harness_.Run(caller, {}), (9u + 9u) * 1000u + 9u);
}

TEST_F(TagRegisterTest, TagCarriesAcrossTopLevelCalls) {
  const uint32_t set = Add("set", {SetTag(31), Ret(kNoPhysReg)});
  const uint32_t get = Add("get", {GetTag(0), Ret(0)});
  Cpu cpu(harness_.mem, harness_.code_map, harness_.pmu);
  cpu.CallFunction(set, {});
  EXPECT_EQ(cpu.CallFunction(get, {}), 31u);
  EXPECT_EQ(cpu.CallFunction(get, {}), 31u);
}

TEST_F(TagRegisterTest, SampleInCalleeReportsCallerTag) {
  std::vector<MInstr> body = {SetR0()};
  MInstr add;
  add.op = Opcode::kAdd;
  add.dst = 0;
  add.ra = 0;
  add.b_is_imm = true;
  add.imm = 1;
  body.insert(body.end(), 200, add);
  body.push_back(Ret(0));
  const uint32_t callee = Add("callee", body);
  const uint32_t caller = Add("caller", {SetTag(444), Call(callee), Ret(kNoPhysReg)});
  SamplingConfig config;
  config.enabled = true;
  config.period = 13;
  config.capture_registers = true;
  harness_.pmu.Configure(config);
  harness_.Run(caller, {});
  const CodeSegment& callee_segment =
      harness_.code_map.segment(harness_.code_map.function(callee).segment);
  size_t in_callee = 0;
  for (const Sample& sample : harness_.pmu.samples()) {
    if (harness_.code_map.FindByIp(sample.ip) == &callee_segment) {
      EXPECT_EQ(sample.regs[kTagReg], 444u);
      ++in_callee;
    }
  }
  EXPECT_GT(in_callee, 10u);
}

TEST(Cpu, TagRegisterVisibleInSamples) {
  IrFunction fn("tagged", 0);
  IrIdAllocator ids;
  IrBuilder b(&fn, &ids);
  uint32_t entry = b.CreateBlock("entry");
  uint32_t head = b.CreateBlock("head");
  uint32_t body = b.CreateBlock("body");
  uint32_t exit = b.CreateBlock("exit");
  b.SetInsertPoint(entry);
  b.SetTag(Value::Imm(777));
  uint32_t i = b.Const(0);
  b.Br(head);
  b.SetInsertPoint(head);
  uint32_t more = b.CmpLt(Value::Reg(i), Value::Imm(1000));
  b.CondBr(Value::Reg(more), body, exit);
  b.SetInsertPoint(body);
  b.Assign(i, Opcode::kAdd, Value::Reg(i), Value::Imm(1));
  b.Br(head);
  b.SetInsertPoint(exit);
  b.Ret();
  VcpuHarness harness;
  SamplingConfig config;
  config.enabled = true;
  config.period = 50;
  config.capture_registers = true;
  harness.pmu.Configure(config);
  CompileOptions options;
  options.reserve_tag_register = true;
  harness.CompileAndRun(fn, {}, options);
  ASSERT_GT(harness.pmu.samples().size(), 10u);
  size_t tagged = 0;
  for (const Sample& sample : harness.pmu.samples()) {
    ASSERT_TRUE(sample.has_registers);
    if (sample.regs[kTagRegister] == 777) {
      ++tagged;
    }
  }
  EXPECT_GT(tagged, harness.pmu.samples().size() - 3);  // All but the pre-SetTag prologue.
}

}  // namespace
}  // namespace dfp
