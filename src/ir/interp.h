// Reference interpreter for VIR functions.
//
// Executes a function directly on virtual registers against a VMem, with calls dispatched through
// an environment callback. It has no cost model and is used as the correctness oracle for the
// backend: optimization passes and register allocation must not change what a function computes.
// Its arithmetic is EvalOp's (src/ir/opcode.h), the same the folder and the VCPU use, so it checks
// what the backend does with operations, not what they compute; an operation that traps fails a
// DFP_CHECK.
#ifndef DFP_SRC_IR_INTERP_H_
#define DFP_SRC_IR_INTERP_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/ir/instr.h"
#include "src/vcpu/vmem.h"

namespace dfp {

struct IrInterpEnv {
  // Dispatches kCall instructions; may be empty if the function performs no calls.
  std::function<uint64_t(uint32_t callee, std::span<const uint64_t> args)> call;
  // Tag register state shared with the caller (Register Tagging semantics).
  uint64_t tag = 0;
};

// Runs `function` with the given arguments. Returns the kRet value (0 for void returns).
// Execution is bounded by `max_steps` to keep property tests safe against accidental
// non-termination; exceeding it aborts.
uint64_t InterpretIr(const IrFunction& function, std::span<const uint64_t> args, VMem& mem,
                     IrInterpEnv* env = nullptr, uint64_t max_steps = 100'000'000);

}  // namespace dfp

#endif  // DFP_SRC_IR_INTERP_H_
