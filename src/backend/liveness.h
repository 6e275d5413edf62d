// Virtual-register liveness analysis over the (non-SSA) VIR control-flow graph.
//
// Used by dead-code elimination and by the register allocator's live-interval construction.
#ifndef DFP_SRC_BACKEND_LIVENESS_H_
#define DFP_SRC_BACKEND_LIVENESS_H_

#include <cstdint>
#include <vector>

#include "src/ir/instr.h"

namespace dfp {

struct BlockLiveness {
  // Indexed by virtual register.
  std::vector<bool> live_in;
  std::vector<bool> live_out;
};

struct LivenessInfo {
  std::vector<BlockLiveness> blocks;

  bool LiveIn(uint32_t block, uint32_t vreg) const { return blocks[block].live_in[vreg]; }
  bool LiveOut(uint32_t block, uint32_t vreg) const { return blocks[block].live_out[vreg]; }
};

// Successor block ids of a block's terminator.
std::vector<uint32_t> BlockSuccessors(const IrBlock& block);

// Iterative backward dataflow to a fixpoint.
LivenessInfo ComputeLiveness(const IrFunction& function);

// Calls `fn(vreg)` for every register operand the instruction reads.
template <typename Fn>
void ForEachUse(const IrInstr& instr, Fn&& fn) {
  if (instr.a.IsReg()) {
    fn(instr.a.vreg);
  }
  if (instr.b.IsReg()) {
    fn(instr.b.vreg);
  }
  if (instr.c.IsReg()) {
    fn(instr.c.vreg);
  }
  for (const Value& arg : instr.args) {
    if (arg.IsReg()) {
      fn(arg.vreg);
    }
  }
}

// True if the instruction has no observable effect besides writing its destination register.
// Loads count as pure: eliminating a dead load changes timing but not results.
inline bool IsPure(const IrInstr& instr) {
  switch (instr.op) {
    case Opcode::kCall:
    case Opcode::kBr:
    case Opcode::kCondBr:
    case Opcode::kRet:
    case Opcode::kSetTag:
    case Opcode::kStore8:
      return false;
    default:
      return true;
  }
}

// True if the instruction's value can be computed at compile time from constant operands.
// Loads and GetTag are excluded: their value depends on runtime state.
inline bool IsFoldable(const IrInstr& instr) {
  if (!IsPure(instr) || IsLoad(instr.op) || instr.op == Opcode::kGetTag ||
      instr.op == Opcode::kSelect) {
    return false;
  }
  return instr.HasDst();
}

}  // namespace dfp

#endif  // DFP_SRC_BACKEND_LIVENESS_H_
