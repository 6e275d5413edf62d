// PEBS-like performance monitoring unit for the simulated CPU.
//
// The PMU counts hardware events, and — when armed on one event with a sampling period — collects
// samples into an in-memory buffer. Recording and buffer flushing are charged to the simulated
// clock, which is what makes the paper's overhead experiments (Figure 13) reproducible: overhead
// is a deterministic function of sampling frequency and of which fields each sample captures.
// Call-stack capture is modeled as interrupt-based sampling (PEBS cannot record stacks by itself),
// hence its much higher per-sample cost.
#ifndef DFP_SRC_PMU_PMU_H_
#define DFP_SRC_PMU_PMU_H_

#include <cstdint>
#include <vector>

#include "src/pmu/event.h"
#include "src/pmu/sample.h"

namespace dfp {

struct SamplingConfig {
  bool enabled = false;
  PmuEvent event = PmuEvent::kInstrRetired;
  uint64_t period = 5000;
  bool capture_registers = false;
  bool capture_callstack = false;
  bool capture_address = false;  // Record the accessed address for memory events.

  // Per-pipeline period overrides, indexed by pipeline id; 0 (or an index past the end) falls
  // back to `period`. Empty means uniform sampling. Filled by the sampling governor when it
  // weights periods by critical-path share (src/critpath/); ParallelRun re-arms each worker's
  // PMU with the pipeline's period at morsel dispatch, so samples concentrate on the pipelines
  // that actually gate latency while the total stays within the overhead budget.
  std::vector<uint64_t> pipeline_periods;

  // Bytes one stored sample occupies under this configuration (reported by the storage
  // experiment; depth is the call-stack depth for stack samples).
  uint64_t SampleBytes(uint64_t callstack_depth = 0) const;
};

// Cycle costs of the sampling machinery. Defaults are calibrated against the numbers reported in
// the paper's Section 6.2 (35% overhead for IP+time at a 5000-event period, +3% for registers,
// 529% for call-stack sampling).
struct PmuCosts {
  uint64_t record_base = 6700;             // PEBS assist + amortized kernel buffer handling.
  uint64_t record_registers = 580;         // Extra state captured per sample.
  uint64_t record_callstack_base = 95000;  // Interrupt entry/exit for stack-walking samples.
  uint64_t record_callstack_per_frame = 400;
  uint64_t buffer_capacity = 4096;         // Samples per PEBS buffer.
  uint64_t flush_cost = 60000;             // Kernel involvement when the buffer fills.
};

struct PmuCounters {
  uint64_t values[kPmuEventCount] = {};

  uint64_t operator[](PmuEvent event) const { return values[static_cast<int>(event)]; }
};

// Measured cost of the sampling machinery for one sample buffer, split the way the paper's
// Section 6.2 decomposes overhead: per-sample capture (PEBS assist + extra fields) versus the
// kernel buffer flushes. These are the cycles Record() actually charged to the VCPU clock, so
// a consumer (the adaptive sampling governor, bench_overhead) reads measured — not estimated —
// cost.
struct SamplingOverhead {
  uint64_t capture_cycles = 0;  // Per-sample recording cost, summed over all samples.
  uint64_t flush_cycles = 0;    // Buffer-full flushes, summed.
  uint64_t samples = 0;         // Samples recorded into this buffer.
  uint64_t flushes = 0;         // Buffer flushes that occurred.

  uint64_t total_cycles() const { return capture_cycles + flush_cycles; }

  SamplingOverhead& operator+=(const SamplingOverhead& other) {
    capture_cycles += other.capture_cycles;
    flush_cycles += other.flush_cycles;
    samples += other.samples;
    flushes += other.flushes;
    return *this;
  }
};

class Pmu {
 public:
  explicit Pmu(PmuCosts costs = PmuCosts()) : costs_(costs) {}

  void Configure(const SamplingConfig& config) {
    config_ = config;
    armed_counter_ = 0;
    buffered_ = 0;
    overhead_ = SamplingOverhead();
  }
  const SamplingConfig& config() const { return config_; }
  const PmuCosts& costs() const { return costs_; }

  // Re-arms the sampling period without disturbing the armed counter or the buffer — the
  // hardware analogue of rewriting the PEBS reset value between overflows. Used by ParallelRun
  // to apply per-pipeline periods at morsel dispatch; a carried-over armed counter at or past
  // the new period simply fires on the next tick, so the switch stays deterministic.
  void set_period(uint64_t period) {
    if (period != 0) {
      config_.period = period;
    }
  }

  // Counts `n` occurrences of `event`; returns true if the armed event's period elapsed and a
  // sample must be taken now.
  bool Tick(PmuEvent event, uint64_t n = 1) {
    counters_.values[static_cast<int>(event)] += n;
    if (!config_.enabled || event != config_.event) {
      return false;
    }
    armed_counter_ += n;
    if (armed_counter_ >= config_.period) {
      armed_counter_ -= config_.period;
      if (armed_counter_ >= config_.period) {
        armed_counter_ = 0;  // Multiple crossings collapse into one sample (hardware throttling).
      }
      return true;
    }
    return false;
  }

  // Stores a sample and returns the cycle cost of recording it (including the amortized buffer
  // flush when the PEBS buffer fills up).
  uint64_t Record(Sample sample);

  const std::vector<Sample>& samples() const { return samples_; }
  std::vector<Sample> TakeSamples() { return std::move(samples_); }
  const PmuCounters& counters() const { return counters_; }

  // Cycles Record() charged for sampling since the last Configure()/Reset() — the measured
  // overhead of this buffer.
  const SamplingOverhead& overhead() const { return overhead_; }

  void ResetCounters() { counters_ = PmuCounters(); }
  void Reset() {
    counters_ = PmuCounters();
    samples_.clear();
    armed_counter_ = 0;
    buffered_ = 0;
    overhead_ = SamplingOverhead();
  }

 private:
  PmuCosts costs_;
  SamplingConfig config_;
  PmuCounters counters_;
  SamplingOverhead overhead_;
  std::vector<Sample> samples_;
  uint64_t armed_counter_ = 0;
  uint64_t buffered_ = 0;
};

}  // namespace dfp

#endif  // DFP_SRC_PMU_PMU_H_
