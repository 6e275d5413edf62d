// Per-instruction cycle costs of the simulated CPU.
//
// Latencies loosely follow a Skylake-class core: cheap ALU ops, a 3-cycle multiply, expensive
// integer division (which is what makes the aggregation's per-tuple divisions a hotspot in the
// paper's Listing 1), and cache-hierarchy-dependent load latency added by the execution loop.
#ifndef DFP_SRC_VCPU_COST_MODEL_H_
#define DFP_SRC_VCPU_COST_MODEL_H_

#include <cstdint>

#include "src/ir/opcode.h"

namespace dfp {

// Nominal clock used to convert simulated cycles to wall-clock quantities in reports
// (the paper's use-case machine runs at 4.2 GHz).
inline constexpr double kClockGhz = 4.2;

inline constexpr double CyclesToMs(uint64_t cycles) {
  return static_cast<double>(cycles) / (kClockGhz * 1e6);
}

// Extra latency of a DRAM access served by a remote NUMA node's memory controller (one
// interconnect hop), added on top of kMemoryLatencyCycles (src/vcpu/cache.h). Roughly the
// local/remote delta of a two-socket Skylake-SP (~90ns local, ~140ns remote at 4.2 GHz ≈ 130
// cycles).
inline constexpr uint32_t kRemoteDramPenaltyCycles = 130;

// Extra latency of a memory access served by another *machine node* (a different shard's
// memory, one network/fabric hop away). Deliberately well above the cross-socket penalty:
// roughly a cache-coherent fabric round trip (~165ns at 4.2 GHz ≈ 690 cycles) minus the local
// DRAM latency already charged by the cache model.
inline constexpr uint32_t kCrossNodePenaltyCycles = 560;

// Base cost of an instruction, excluding memory latency (added from the cache model) and branch
// misprediction penalties (added from the branch predictor).
inline constexpr uint32_t BaseCost(Opcode op) {
  switch (op) {
    case Opcode::kMul:
      return 3;
    case Opcode::kDiv:
    case Opcode::kRem:
      return 21;
    case Opcode::kFAdd:
    case Opcode::kFSub:
      return 3;
    case Opcode::kFMul:
      return 4;
    case Opcode::kFDiv:
      return 14;
    case Opcode::kFCmpEq:
    case Opcode::kFCmpNe:
    case Opcode::kFCmpLt:
    case Opcode::kFCmpLe:
    case Opcode::kFCmpGt:
    case Opcode::kFCmpGe:
      return 2;
    case Opcode::kSiToFp:
      return 4;
    case Opcode::kCrc32:
      return 3;
    case Opcode::kStore8:
      return 1;  // Store latency is hidden by the store buffer; cache state is still updated.
    case Opcode::kSelect:
      return 2;
    case Opcode::kCall:
      return 6;
    case Opcode::kRet:
      return 3;
    case Opcode::kLoadSpill:
      return 3;  // Spill slots model always-L1-resident stack traffic.
    case Opcode::kStoreSpill:
      return 2;
    default:
      return 1;
  }
}

}  // namespace dfp

#endif  // DFP_SRC_VCPU_COST_MODEL_H_
