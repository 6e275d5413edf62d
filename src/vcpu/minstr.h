// Machine instruction formats: `MInstr`, what the emitter produces, and `ExecInstr`, the
// execution form the VCPU steps through.
//
// Operands are physical registers (0..15). Register 15 is architecturally global (shared across
// call frames) and is the register Tailored Profiling reserves for Register Tagging. Calls use a
// register-window convention: the callee receives a fresh register file with arguments copied
// into r0..rN by the call instruction; argument sources may be registers, spill slots, or
// immediates (the stack-argument analogue).
#ifndef DFP_SRC_VCPU_MINSTR_H_
#define DFP_SRC_VCPU_MINSTR_H_

#include <cstdint>
#include <vector>

#include "src/ir/opcode.h"

namespace dfp {

inline constexpr uint8_t kNumPhysRegs = 16;
inline constexpr uint8_t kTagReg = 15;
inline constexpr uint8_t kNoPhysReg = 0xFF;
inline constexpr uint32_t kNoCallee = 0xFFFFFFFFu;

// A call argument source.
struct MArg {
  enum class Kind : uint8_t { kReg, kSpill, kImm };
  Kind kind = Kind::kReg;
  uint64_t value = 0;  // Register index, spill slot, or immediate bits.
};

struct MInstr {
  Opcode op = Opcode::kConst;
  uint8_t dst = kNoPhysReg;
  uint8_t ra = kNoPhysReg;
  uint8_t rb = kNoPhysReg;
  uint8_t rc = kNoPhysReg;
  bool b_is_imm = false;  // Second operand is `imm` instead of `rb`.
  bool a_is_imm = false;  // First operand is `imm` (kConst, kSetTag immediate form).
  bool is_tag = false;    // Instruction belongs to a Register Tagging save/set/restore sequence.
  int64_t imm = 0;
  int32_t disp = 0;          // Displacement for loads/stores.
  uint16_t spill_slot = 0;   // For kLoadSpill/kStoreSpill.
  uint32_t target0 = 0;      // Branch targets: code offsets within the segment (after fixup).
  uint32_t target1 = 0;
  uint32_t callee = kNoCallee;  // Global function id for kCall.
  uint32_t ir_id = kNoIrId;     // Debug info: the VIR instruction this was lowered from.
  std::vector<MArg> args;       // Call arguments.
};

// Register slots of a frame in execution form: the 16 registers, then a slot that reads 0 where
// an operand is absent and a slot that absorbs the write of an absent destination.
inline constexpr uint8_t kZeroSlot = kNumPhysRegs;
inline constexpr uint8_t kSinkSlot = kNumPhysRegs + 1;
inline constexpr uint8_t kNumRegSlots = kNumPhysRegs + 2;

// An opcode with its operand form folded in. RR reads both operands from registers, RI takes the
// second from the immediate. kAlu is every other computation: it reads its operands as the
// immediate bits say and dispatches on `ExecInstr::op`.
enum class ExecOp : uint8_t {
  kMovImm,
  kMovReg,
  kAddRR,
  kAddRI,
  kSubRR,
  kSubRI,
  kMulRR,
  kMulRI,
  kAndRR,
  kAndRI,
  kOrRR,
  kOrRI,
  kXorRR,
  kXorRI,
  kShlRR,
  kShlRI,
  kShrRR,
  kShrRI,
  kCmpEqRR,
  kCmpEqRI,
  kCmpNeRR,
  kCmpNeRI,
  kCmpLtRR,
  kCmpLtRI,
  kCmpLeRR,
  kCmpLeRI,
  kCmpGtRR,
  kCmpGtRI,
  kCmpGeRR,
  kCmpGeRI,
  kSelect,
  kAlu,
  kLoad1,  // The loads in Opcode's order.
  kLoad4,
  kLoad8,
  kStore8,
  kBr,
  kCondBr,
  kCall,
  kRetReg,
  kRetImm,
  kGetTag,
  kSetTagReg,
  kSetTagImm,
  kLoadSpill,
  kStoreSpill,
};

// One instruction in execution form. CodeMap::AddSegment lowers each MInstr into one record;
// the debug id and a call's arguments live out of line in the segment.
struct ExecInstr {
  static constexpr uint8_t kAImm = 1;   // MInstr::a_is_imm.
  static constexpr uint8_t kBImm = 2;   // MInstr::b_is_imm.
  static constexpr uint8_t kIsTag = 4;  // MInstr::is_tag.
  static constexpr int kArgCountShift = 3;  // A call's argument count sits above the flags.

  ExecOp xop = ExecOp::kAlu;
  Opcode op = Opcode::kConst;  // The emitter's opcode.
  uint8_t dst = kSinkSlot;     // Register slots.
  uint8_t ra = kZeroSlot;
  uint8_t rb = kZeroSlot;
  uint8_t rc = kZeroSlot;
  uint8_t cost = 0;  // BaseCost(op).
  uint8_t bits = 0;
  // The immediate; a load's or store's displacement, sign-extended; a spill slot; target0 in the
  // low and target1 in the high half; or the callee in the low half and the index of the call's
  // first argument in CodeSegment::call_args in the high half.
  uint64_t payload = 0;

  uint32_t lo() const { return static_cast<uint32_t>(payload); }
  uint32_t hi() const { return static_cast<uint32_t>(payload >> 32); }
  uint8_t num_args() const { return bits >> kArgCountShift; }
  bool HoldsImm() const { return (bits & (kAImm | kBImm)) != 0; }
};
static_assert(sizeof(ExecInstr) == 16);

}  // namespace dfp

#endif  // DFP_SRC_VCPU_MINSTR_H_
