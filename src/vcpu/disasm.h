// Textual rendering of machine code — the lowest abstraction level of profiling reports
// (what a traditional `perf report` would show).
#ifndef DFP_SRC_VCPU_DISASM_H_
#define DFP_SRC_VCPU_DISASM_H_

#include <string>

#include "src/vcpu/code_map.h"
#include "src/vcpu/minstr.h"

namespace dfp {

// One instruction, e.g. "r3 = add r1, 42" or "condbr r2, @12, @17".
std::string MInstrToString(const MInstr& instr);

}  // namespace dfp

#endif  // DFP_SRC_VCPU_DISASM_H_
