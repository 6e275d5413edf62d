#include "src/pmu/pmu.h"

namespace dfp {

uint64_t SamplingConfig::SampleBytes(uint64_t callstack_depth) const {
  uint64_t bytes = 8 /* ip */ + 8 /* tsc */;
  if (capture_address) {
    bytes += 8;
  }
  if (capture_registers) {
    bytes += 8ull * kNumMachineRegs;
  }
  if (capture_callstack) {
    bytes += 8 /* depth */ + 8ull * callstack_depth;
  }
  return bytes;
}

uint64_t Pmu::Record(Sample sample) {
  uint64_t capture = costs_.record_base;
  if (config_.capture_registers) {
    capture += costs_.record_registers;
  }
  if (config_.capture_callstack) {
    capture += costs_.record_callstack_base +
               costs_.record_callstack_per_frame * sample.callstack.size();
  }
  samples_.push_back(std::move(sample));
  overhead_.capture_cycles += capture;
  ++overhead_.samples;
  uint64_t cost = capture;
  if (++buffered_ >= costs_.buffer_capacity) {
    buffered_ = 0;
    cost += costs_.flush_cost;
    overhead_.flush_cycles += costs_.flush_cost;
    ++overhead_.flushes;
  }
  return cost;
}

const char* PmuEventName(PmuEvent event) {
  switch (event) {
    case PmuEvent::kInstrRetired:
      return "INSTR_RETIRED";
    case PmuEvent::kLoads:
      return "MEM_LOADS";
    case PmuEvent::kL1Miss:
      return "L1_MISS";
    case PmuEvent::kL2Miss:
      return "L2_MISS";
    case PmuEvent::kL3Miss:
      return "L3_MISS";
    case PmuEvent::kBranchMiss:
      return "BRANCH_MISS";
    case PmuEvent::kRemoteDram:
      return "REMOTE_DRAM";
    case PmuEvent::kCrossNode:
      return "CROSS_NODE";
    case PmuEvent::kEventCount:
      break;
  }
  return "?";
}

}  // namespace dfp
