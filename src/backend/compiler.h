// Backend driver: optimization pipeline + register allocation + machine code emission.
//
// This is the engine's third lowering step (Machine IR -> machine instructions). The debug info
// it produces (per-machine-instruction VIR ids) plays the role DWARF plays for Umbra/LLVM.
#ifndef DFP_SRC_BACKEND_COMPILER_H_
#define DFP_SRC_BACKEND_COMPILER_H_

#include "src/backend/emitter.h"
#include "src/backend/lineage.h"
#include "src/ir/instr.h"

namespace dfp {

struct CompileOptions {
  bool optimize = true;
  // Reserve r15 for Register Tagging (shrinks the allocatable pool by one register).
  bool reserve_tag_register = false;
  // Receives lineage notifications from optimization passes (the Tagging Dictionary).
  LineageListener* lineage = nullptr;
};

struct CompileStats {
  uint32_t ir_instrs = 0;
  uint32_t machine_instrs = 0;
  uint32_t spilled_vregs = 0;
  uint16_t spill_slots = 0;
};

// Optimizes `function` in place, then lowers it. The IR verifier runs before and after
// optimization; the compile aborts on a structural error.
EmittedFunction CompileFunction(IrFunction& function, const CompileOptions& options,
                                CompileStats* stats = nullptr);

}  // namespace dfp

#endif  // DFP_SRC_BACKEND_COMPILER_H_
