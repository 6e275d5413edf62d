#include "src/backend/compiler.h"

#include <cstdio>

#include "src/backend/passes.h"
#include "src/backend/regalloc.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/util/check.h"

namespace dfp {
namespace {

void VerifyOrDie(const IrFunction& function, const char* phase) {
  std::vector<std::string> problems = VerifyFunction(function);
  if (!problems.empty()) {
    std::fprintf(stderr, "IR verification failed (%s) in %s:\n", phase, function.name().c_str());
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "  %s\n", problem.c_str());
    }
    std::fprintf(stderr, "%s", PrintFunction(function).ToString().c_str());
    DFP_CHECK(false);
  }
}

}  // namespace

EmittedFunction CompileFunction(IrFunction& function, const CompileOptions& options,
                                CompileStats* stats) {
  VerifyOrDie(function, "pre-optimization");
  if (options.optimize) {
    RunOptimizationPipeline(function, options.lineage);
    VerifyOrDie(function, "post-optimization");
  }
  Allocation allocation = AllocateRegisters(function, options.reserve_tag_register);
  EmittedFunction emitted = EmitMachineCode(function, allocation);
  if (stats != nullptr) {
    stats->ir_instrs = static_cast<uint32_t>(function.InstrCount());
    stats->machine_instrs = static_cast<uint32_t>(emitted.code.size());
    stats->spilled_vregs = allocation.spilled_vregs;
    stats->spill_slots = allocation.spill_slot_count;
  }
  return emitted;
}

}  // namespace dfp
