// The execution form CodeMap::AddSegment stores must lose nothing: every instruction the emitter
// can produce comes back from CodeSegment::Instr field by field and prints the same listing
// line, and plan patching rewrites the stored form so Instr() shows the new literals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/tiering/patch.h"
#include "src/vcpu/code_map.h"
#include "src/vcpu/disasm.h"

namespace dfp {
namespace {

MInstr Make(Opcode op, uint8_t dst, uint8_t ra, uint8_t rb = kNoPhysReg) {
  MInstr instr;
  instr.op = op;
  instr.dst = dst;
  instr.ra = ra;
  instr.rb = rb;
  return instr;
}

MInstr WithImm(MInstr instr, int64_t imm, bool a_is_imm) {
  (a_is_imm ? instr.a_is_imm : instr.b_is_imm) = true;
  instr.imm = imm;
  return instr;
}

MInstr Tagged(MInstr instr) {
  instr.is_tag = true;
  return instr;
}

MInstr Call(uint32_t callee, uint8_t dst, std::vector<MArg> args) {
  MInstr instr = Make(Opcode::kCall, dst, kNoPhysReg);
  instr.callee = callee;
  instr.args = std::move(args);
  return instr;
}

// Every opcode in every operand form the emitter produces, plus edge values of each field.
std::vector<MInstr> EveryForm() {
  std::vector<MInstr> code;
  code.push_back(WithImm(Make(Opcode::kConst, 3, kNoPhysReg), -42, true));
  code.push_back(WithImm(Make(Opcode::kConst, 15, kNoPhysReg), INT64_MIN, true));
  code.push_back(Tagged(WithImm(Make(Opcode::kConst, 14, kNoPhysReg), INT64_MAX, true)));
  code.push_back(Make(Opcode::kMov, 0, 15));
  for (Opcode op : {Opcode::kNeg, Opcode::kFNeg, Opcode::kSiToFp}) {
    code.push_back(Make(op, 4, 5));
  }
  for (Opcode op :
       {Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kDiv, Opcode::kRem, Opcode::kAnd,
        Opcode::kOr, Opcode::kXor, Opcode::kShl, Opcode::kShr, Opcode::kRotr, Opcode::kCmpEq,
        Opcode::kCmpNe, Opcode::kCmpLt, Opcode::kCmpLe, Opcode::kCmpGt, Opcode::kCmpGe,
        Opcode::kFAdd, Opcode::kFSub, Opcode::kFMul, Opcode::kFDiv, Opcode::kFCmpEq,
        Opcode::kFCmpNe, Opcode::kFCmpLt, Opcode::kFCmpLe, Opcode::kFCmpGt, Opcode::kFCmpGe,
        Opcode::kCrc32}) {
    code.push_back(Make(op, 1, 2, 3));
    code.push_back(WithImm(Make(op, 1, 2), -7, false));
  }
  for (Opcode op : {Opcode::kLoad1, Opcode::kLoad4, Opcode::kLoad8}) {
    MInstr load = Make(op, 6, 7);
    load.disp = -2147483647 - 1;
    code.push_back(load);
  }
  MInstr store = Make(Opcode::kStore8, kNoPhysReg, 8, 9);
  store.disp = -24;
  code.push_back(store);
  MInstr select = Make(Opcode::kSelect, 10, 11, 12);
  select.rc = 13;
  code.push_back(select);
  MInstr br = Make(Opcode::kBr, kNoPhysReg, kNoPhysReg);
  br.target0 = 0xFFFFFFFEu;
  code.push_back(br);
  MInstr condbr = Make(Opcode::kCondBr, kNoPhysReg, 4);
  condbr.target0 = 0xFFFFFFFFu;
  condbr.target1 = 0xFFFFFFFDu;
  code.push_back(condbr);
  std::vector<MArg> sixteen;
  for (uint64_t i = 0; i < kNumPhysRegs; ++i) {
    const MArg::Kind kind = i % 3 == 0 ? MArg::Kind::kReg
                            : i % 3 == 1 ? MArg::Kind::kSpill
                                         : MArg::Kind::kImm;
    sixteen.push_back({kind, kind == MArg::Kind::kImm ? ~i : i});
  }
  code.push_back(Call(7, 2, sixteen));
  code.push_back(Call(0xFFFFFFF0u, kNoPhysReg, {{MArg::Kind::kImm, 99}}));
  code.push_back(Call(3, kNoPhysReg, {}));
  code.push_back(Make(Opcode::kRet, kNoPhysReg, kNoPhysReg));
  code.push_back(Make(Opcode::kRet, kNoPhysReg, 0));
  code.push_back(WithImm(Make(Opcode::kRet, kNoPhysReg, kNoPhysReg), 123, true));
  code.push_back(Tagged(Make(Opcode::kGetTag, 9, kNoPhysReg)));
  code.push_back(Tagged(WithImm(Make(Opcode::kSetTag, kNoPhysReg, kNoPhysReg), 0x100000001, true)));
  code.push_back(Tagged(Make(Opcode::kSetTag, kNoPhysReg, 9)));
  MInstr ldspill = Make(Opcode::kLoadSpill, 14, kNoPhysReg);
  ldspill.spill_slot = 65535;
  code.push_back(ldspill);
  code.push_back(Tagged(ldspill));
  MInstr stspill = Make(Opcode::kStoreSpill, kNoPhysReg, 14);
  stspill.spill_slot = 65534;
  code.push_back(stspill);
  for (size_t i = 0; i < code.size(); ++i) {
    code[i].ir_id = i % 5 == 4 ? kNoIrId : static_cast<uint32_t>(1000 + i);
  }
  return code;
}

void ExpectSame(const MInstr& want, const MInstr& got, size_t offset) {
  SCOPED_TRACE("offset " + std::to_string(offset) + ": " + MInstrToString(want));
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.ra, want.ra);
  EXPECT_EQ(got.rb, want.rb);
  EXPECT_EQ(got.rc, want.rc);
  EXPECT_EQ(got.a_is_imm, want.a_is_imm);
  EXPECT_EQ(got.b_is_imm, want.b_is_imm);
  EXPECT_EQ(got.is_tag, want.is_tag);
  EXPECT_EQ(got.imm, want.imm);
  EXPECT_EQ(got.disp, want.disp);
  EXPECT_EQ(got.spill_slot, want.spill_slot);
  EXPECT_EQ(got.target0, want.target0);
  EXPECT_EQ(got.target1, want.target1);
  EXPECT_EQ(got.callee, want.callee);
  EXPECT_EQ(got.ir_id, want.ir_id);
  ASSERT_EQ(got.args.size(), want.args.size());
  for (size_t i = 0; i < want.args.size(); ++i) {
    EXPECT_EQ(got.args[i].kind, want.args[i].kind) << "arg " << i;
    EXPECT_EQ(got.args[i].value, want.args[i].value) << "arg " << i;
  }
  EXPECT_EQ(MInstrToString(got), MInstrToString(want));
}

TEST(CodeMap, ExecutionFormRoundTripsEveryEmittedForm) {
  const std::vector<MInstr> code = EveryForm();
  CodeMap code_map;
  const CodeSegment& segment =
      code_map.segment(code_map.AddSegment(SegmentKind::kGenerated, "every_form", code));
  ASSERT_EQ(segment.code.size(), code.size());
  ASSERT_EQ(segment.ir_ids.size(), code.size());
  EXPECT_EQ(segment.call_args.size(), 16u + 1u);
  for (size_t i = 0; i < code.size(); ++i) {
    ExpectSame(code[i], segment.Instr(i), i);
  }
}

TEST(CodeMap, PatchingRewritesTheExecutionForm) {
  Database db;
  MInstr cmp = WithImm(Make(Opcode::kCmpLt, 1, 0), 19950101, false);
  MInstr call = Call(5, 2, {{MArg::Kind::kReg, 0}, {MArg::Kind::kImm, 11}});
  MInstr ret = Make(Opcode::kRet, kNoPhysReg, 2);
  const uint32_t segment = db.code_map().AddSegment(SegmentKind::kGenerated, "patched",
                                                    {cmp, call, ret});
  CachedPlan entry;
  PipelineArtifact& artifact = entry.query.pipelines.emplace_back(IrFunction("patched", 0));
  artifact.segment = segment;
  LiteralSite imm_site;
  imm_site.slot = 0;
  imm_site.code_offset = 0;
  LiteralSite arg_site;
  arg_site.slot = 1;
  arg_site.code_offset = 1;
  arg_site.field = LiteralSite::Field::kArg;
  arg_site.arg_index = 1;
  artifact.literal_sites = {imm_site, arg_site};
  entry.literals.bindings.resize(2);
  entry.literals.bindings[0].value = 19950101;
  entry.literals.bindings[1].value = 11;
  PlanLiterals incoming = entry.literals;
  incoming.bindings[0].value = -5;
  incoming.bindings[1].value = 12;

  EXPECT_EQ(PatchCachedPlan(db, entry, incoming, 0), 2u);
  const CodeSegment& patched = db.code_map().segment(segment);
  cmp.imm = -5;
  call.args[1].value = 12;
  ExpectSame(cmp, patched.Instr(0), 0);
  ExpectSame(call, patched.Instr(1), 1);
  ExpectSame(ret, patched.Instr(2), 2);

  // An immediate site must name an instruction that holds an immediate.
  artifact.literal_sites = {imm_site};
  artifact.literal_sites[0].code_offset = 2;
  incoming.bindings[0].value = 6;
  EXPECT_DEATH(PatchCachedPlan(db, entry, incoming, 0), "DFP_CHECK");
}

}  // namespace
}  // namespace dfp
