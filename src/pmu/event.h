// Hardware events observable by the performance monitoring unit.
#ifndef DFP_SRC_PMU_EVENT_H_
#define DFP_SRC_PMU_EVENT_H_

#include <cstdint>

namespace dfp {

enum class PmuEvent : uint8_t {
  kInstrRetired,  // Every retired instruction (INST_RETIRED.PREC_DIST analogue).
  kLoads,         // Retired load instructions (MEM_INST_RETIRED.ALL_LOADS analogue).
  kL1Miss,
  kL2Miss,
  kL3Miss,
  kBranchMiss,
  kRemoteDram,  // Accesses served by a remote NUMA node's DRAM (OFFCORE remote analogue).
  kCrossNode,   // Accesses served by another machine node's memory (shard interconnect).
  kEventCount,
};

inline constexpr int kPmuEventCount = static_cast<int>(PmuEvent::kEventCount);

}  // namespace dfp

#endif  // DFP_SRC_PMU_EVENT_H_
