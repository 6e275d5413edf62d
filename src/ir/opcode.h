// Operation set shared by VIR (the engine's Machine IR) and the VCPU's machine code.
//
// Both levels use the same operations; they differ in operand model. VIR operands are unbounded
// virtual registers, machine operands are 16 physical registers plus spill slots. The two
// machine-only opcodes (spill traffic) are rejected by the IR verifier.
#ifndef DFP_SRC_IR_OPCODE_H_
#define DFP_SRC_IR_OPCODE_H_

#include <cstdint>

namespace dfp {

enum class Opcode : uint8_t {
  // Constants and moves.
  kConst,  // dst = imm (bit pattern; type distinguishes i64/f64)
  kMov,    // dst = a

  // 64-bit integer arithmetic and bit operations.
  kAdd,
  kSub,
  kMul,
  kDiv,  // Signed. Division by zero traps the VCPU.
  kRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,   // Logical right shift.
  kRotr,  // Rotate right.
  kNot,
  kNeg,

  // Integer comparisons producing 0/1 (signed).
  kCmpEq,
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,

  // IEEE double arithmetic (values are bit-cast in 64-bit registers).
  kFAdd,
  kFSub,
  kFMul,
  kFDiv,
  kFNeg,
  kFCmpEq,
  kFCmpNe,
  kFCmpLt,
  kFCmpLe,
  kFCmpGt,
  kFCmpGe,
  kSiToFp,
  kFpToSi,

  // Hashing: dst = crc32c(low 32 bits of a as seed, b), zero-extended to 64 bits.
  kCrc32,

  // Memory. Effective address = a + disp. Narrow loads: kLoad4 sign-extends, kLoad1/kLoad2
  // zero-extend. Stores truncate.
  kLoad1,
  kLoad2,
  kLoad4,
  kLoad8,
  kStore1,  // a = value, b = address
  kStore2,
  kStore4,
  kStore8,

  // dst = a ? b : c.
  kSelect,

  // Control flow. kCondBr: a = condition, target0 = taken, target1 = fall-through.
  kBr,
  kCondBr,
  kCall,  // dst (optional) = call callee(args...)
  kRet,   // Optional value in a.

  // Register Tagging support. The tag register is architecturally global (shared across call
  // frames, like a SPARC global register), which is what lets a callee-side sample observe the
  // caller's tag.
  kGetTag,  // dst = tag register
  kSetTag,  // tag register = a (register or immediate)

  // Machine level only: spill slot traffic inserted by the register allocator.
  kLoadSpill,   // dst = spill[slot]
  kStoreSpill,  // spill[slot] = a
};

enum class IrType : uint8_t { kI64, kF64 };

// Sentinel for "no originating IR instruction" in debug info and listings.
inline constexpr uint32_t kNoIrId = 0xFFFFFFFFu;

// Short mnemonic for printing ("add", "load4", ...).
const char* OpcodeName(Opcode op);

inline bool IsLoad(Opcode op) {
  return op == Opcode::kLoad1 || op == Opcode::kLoad2 || op == Opcode::kLoad4 ||
         op == Opcode::kLoad8;
}

inline bool IsStore(Opcode op) {
  return op == Opcode::kStore1 || op == Opcode::kStore2 || op == Opcode::kStore4 ||
         op == Opcode::kStore8;
}

inline bool IsTerminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kRet;
}

}  // namespace dfp

#endif  // DFP_SRC_IR_OPCODE_H_
