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
  uint64_t capture = kRecordCycles;
  if (config_.capture_registers) {
    capture += kRecordRegistersCycles;
  }
  if (config_.capture_callstack) {
    capture += kRecordCallstackCycles + kRecordCallstackFrameCycles * sample.callstack.size();
  }
  samples_.push_back(std::move(sample));
  overhead_.capture_cycles += capture;
  ++overhead_.samples;
  uint64_t cost = capture;
  if (++buffered_ >= kPebsBufferSamples) {
    buffered_ = 0;
    cost += kBufferFlushCycles;
    overhead_.flush_cycles += kBufferFlushCycles;
    ++overhead_.flushes;
  }
  return cost;
}

}  // namespace dfp
