// Operation set shared by VIR (the engine's Machine IR) and the VCPU's machine code.
//
// Both levels use the same operations; they differ in operand model. VIR operands are unbounded
// virtual registers, machine operands are 16 physical registers plus spill slots. The two
// machine-only opcodes (spill traffic) are rejected by the IR verifier.
#ifndef DFP_SRC_IR_OPCODE_H_
#define DFP_SRC_IR_OPCODE_H_

#include <bit>
#include <cstdint>
#include <optional>

#include "src/util/check.h"
#include "src/util/hash.h"

namespace dfp {

enum class Opcode : uint8_t {
  // Constants and moves.
  kConst,  // dst = imm (bit pattern; type distinguishes i64/f64)
  kMov,    // dst = a

  // 64-bit integer arithmetic and bit operations.
  kAdd,
  kSub,
  kMul,
  kDiv,  // Signed. Traps on a zero divisor and on INT64_MIN / -1 (see EvalOp).
  kRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,   // Logical right shift.
  kRotr,  // Rotate right.
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

  // Hashing: dst = crc32c(low 32 bits of a as seed, b), zero-extended to 64 bits.
  kCrc32,

  // Memory. Effective address = a + disp. kLoad1 zero-extends, kLoad4 sign-extends.
  kLoad1,
  kLoad4,
  kLoad8,
  kStore8,  // a = value, b = address

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
  return op == Opcode::kLoad1 || op == Opcode::kLoad4 || op == Opcode::kLoad8;
}

inline bool IsStore(Opcode op) { return op == Opcode::kStore8; }

inline bool IsTerminator(Opcode op) {
  return op == Opcode::kBr || op == Opcode::kCondBr || op == Opcode::kRet;
}

// The value computation `op` makes of operands `a` and `b`; `c` is a select's else-value. This is
// each opcode's one meaning: the constant folder, the VCPU and the IR interpreter all evaluate
// through it. Integers wrap in 64-bit two's complement; doubles are bit-cast in the registers.
// No value means the operation traps: a signed division or remainder by zero, or of INT64_MIN
// by -1, the operand pairs x86's idiv cannot compute.
inline std::optional<uint64_t> EvalOp(Opcode op, uint64_t a, uint64_t b, uint64_t c) {
  const auto s = [](uint64_t v) { return static_cast<int64_t>(v); };
  const auto d = [](uint64_t v) { return std::bit_cast<double>(v); };
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  switch (op) {
    case Opcode::kConst:
    case Opcode::kMov:
      return a;
    case Opcode::kAdd:
      return a + b;
    case Opcode::kSub:
      return a - b;
    case Opcode::kMul:
      return a * b;
    case Opcode::kDiv:
    case Opcode::kRem:
      if (b == 0 || (s(a) == INT64_MIN && s(b) == -1)) {
        return std::nullopt;
      }
      return static_cast<uint64_t>(op == Opcode::kDiv ? s(a) / s(b) : s(a) % s(b));
    case Opcode::kAnd:
      return a & b;
    case Opcode::kOr:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kShl:
      return a << (b & 63);
    case Opcode::kShr:
      return a >> (b & 63);
    case Opcode::kRotr:
      return std::rotr(a, static_cast<int>(b & 63));
    case Opcode::kNeg:
      return 0 - a;
    case Opcode::kCmpEq:
      return uint64_t{a == b};
    case Opcode::kCmpNe:
      return uint64_t{a != b};
    case Opcode::kCmpLt:
      return uint64_t{s(a) < s(b)};
    case Opcode::kCmpLe:
      return uint64_t{s(a) <= s(b)};
    case Opcode::kCmpGt:
      return uint64_t{s(a) > s(b)};
    case Opcode::kCmpGe:
      return uint64_t{s(a) >= s(b)};
    case Opcode::kFAdd:
      return bits(d(a) + d(b));
    case Opcode::kFSub:
      return bits(d(a) - d(b));
    case Opcode::kFMul:
      return bits(d(a) * d(b));
    case Opcode::kFDiv:
      return bits(d(a) / d(b));
    case Opcode::kFNeg:
      return bits(-d(a));
    case Opcode::kFCmpEq:
      return uint64_t{d(a) == d(b)};
    case Opcode::kFCmpNe:
      return uint64_t{d(a) != d(b)};
    case Opcode::kFCmpLt:
      return uint64_t{d(a) < d(b)};
    case Opcode::kFCmpLe:
      return uint64_t{d(a) <= d(b)};
    case Opcode::kFCmpGt:
      return uint64_t{d(a) > d(b)};
    case Opcode::kFCmpGe:
      return uint64_t{d(a) >= d(b)};
    case Opcode::kSiToFp:
      return bits(static_cast<double>(s(a)));
    case Opcode::kCrc32:
      return Crc32u64(static_cast<uint32_t>(a), b);
    case Opcode::kSelect:
      return a != 0 ? b : c;
    // Memory, control flow, calls, tags and spills compute no value from their operands.
    case Opcode::kLoad1:
    case Opcode::kLoad4:
    case Opcode::kLoad8:
    case Opcode::kStore8:
    case Opcode::kBr:
    case Opcode::kCondBr:
    case Opcode::kCall:
    case Opcode::kRet:
    case Opcode::kGetTag:
    case Opcode::kSetTag:
    case Opcode::kLoadSpill:
    case Opcode::kStoreSpill:
      break;
  }
  DFP_UNREACHABLE();
}

}  // namespace dfp

#endif  // DFP_SRC_IR_OPCODE_H_
