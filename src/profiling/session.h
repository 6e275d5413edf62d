// ProfilingSession: configuration, compile-time collection, and post-processing state of one
// Tailored Profiling run.
//
// A session is attached to a query compilation (populating the Tagging Dictionary through the
// Abstraction Trackers and the IRBuilder observer, and driving Register Tagging emission) and to
// its execution (PMU sampling). A finished execution of code compiled earlier (a plan-cache hit)
// instead shares the dictionary of that compile (ProfilingSession::Resolved). Afterwards,
// Resolve() maps every sample bottom-up:
//   native IP -> machine instruction -> (debug info) IR instruction -> (Log B) task ->
//   (Log A) operator,
// using the tag register or the call stack to disambiguate shared code, exactly as in Figure 5
// of the paper.
#ifndef DFP_SRC_PROFILING_SESSION_H_
#define DFP_SRC_PROFILING_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/pmu/pmu.h"
#include "src/profiling/abstraction_tracker.h"
#include "src/profiling/tagging_dictionary.h"
#include "src/vcpu/code_map.h"

namespace dfp {

enum class AttributionMode : uint8_t {
  kNone,             // Samples are collected but shared code stays unattributed.
  kRegisterTagging,  // The paper's lightweight mechanism (default).
  kCallStack,        // The expensive baseline.
};

struct ProfilingConfig {
  PmuEvent event = PmuEvent::kInstrRetired;
  uint64_t period = 5000;
  bool capture_address = false;  // For memory-access profiles (Figure 12).
  AttributionMode attribution = AttributionMode::kRegisterTagging;
  // Validation mode (Section 6.3): tag every generated instruction so the IP-based attribution
  // can be cross-checked against the tag register sample by sample.
  bool tag_all_instructions = false;
  // When false, the compile-time machinery (dictionary, tag emission, register reservation)
  // stays active but the PMU never samples — used to isolate Register Tagging's code overhead
  // from the sampling overhead (Section 6.2).
  bool enable_sampling = true;
  // Multi-level tag packing (paper Section 4.2.5): instead of one register per abstraction
  // level, the operator-level tag is packed into the upper 32 bits of the tag register and the
  // task-level tag into the lower 32 bits. Resolution then reads the operator directly from the
  // sample without consulting Log A.
  bool packed_tags = false;
};

struct ResolvedSample {
  enum class Category : uint8_t { kOperator, kKernel, kUnattributed };

  Category category = Category::kUnattributed;
  OperatorId op = kNoOperator;
  TaskId task = kNoTask;
  uint32_t ir_id = kNoIrId;
  uint32_t segment = 0xFFFFFFFFu;
  uint64_t tsc = 0;
  uint64_t ip = 0;
  uint64_t addr = 0;
  uint32_t worker_id = 0;  // VCPU that took the sample (0 on single-threaded runs).
  uint8_t mem_node = kNoNumaNode;  // NUMA home node of `addr` (kNoNumaNode if unmanaged).
  uint8_t tier = 0;            // Compilation tier of the sampled code (PlanTier value).
  bool numa_remote = false;    // The access crossed to another node's memory.
  bool stolen = false;         // Taken while executing a stolen morsel.
  bool ambiguous = false;      // Multi-owner instruction without tag evidence.
  bool via_tag = false;        // Disambiguated through the tag register.
  bool via_callstack = false;  // Disambiguated by walking the call stack.
};

struct AttributionStats {
  uint64_t total = 0;
  uint64_t operator_samples = 0;
  uint64_t kernel_samples = 0;
  uint64_t unattributed = 0;
  uint64_t ambiguous = 0;
  uint64_t via_tag = 0;
  uint64_t via_callstack = 0;
};

// Derives the PMU configuration: register capture for tagging, stack capture for the baseline.
SamplingConfig MakeSamplingConfig(const ProfilingConfig& config);

class ProfilingSession {
 public:
  // A session that compiles: CompileQuery populates the Tagging Dictionary it owns.
  explicit ProfilingSession(ProfilingConfig config = ProfilingConfig());

  // A finished execution of code an earlier compile produced: records the run and resolves it
  // against that compile's Tagging Dictionary, which it shares instead of copying. The session
  // exists only as const, so nothing can populate a shared dictionary.
  static std::unique_ptr<const ProfilingSession> Resolved(
      ProfilingConfig config, std::shared_ptr<const TaggingDictionary> dictionary,
      std::vector<Sample> samples, uint64_t cycles, PmuCounters counters,
      uint32_t worker_count, const CodeMap& code_map);

  const ProfilingConfig& config() const { return config_; }

  // Compile-time population; only a non-const session, which owns its dictionary, has it.
  TaggingDictionary& dictionary() { return owned_; }
  const TaggingDictionary& dictionary() const {
    return shared_ != nullptr ? *shared_ : owned_;
  }
  AbstractionTracker<OperatorId>& operator_tracker() { return operator_tracker_; }
  AbstractionTracker<TaskId>& task_tracker() { return task_tracker_; }

  bool use_register_tagging() const {
    return config_.attribution == AttributionMode::kRegisterTagging;
  }

  // Recorded by the engine after execution. For parallel runs `samples` is the per-worker
  // streams merged by (tsc, worker_id) and `worker_count` the pool size; single-threaded
  // executions use the default of one worker.
  void RecordExecution(std::vector<Sample> samples, uint64_t cycles, PmuCounters counters,
                       uint32_t worker_count = 1);

  // Number of workers that produced the recorded samples (1 for single-threaded runs).
  uint32_t worker_count() const { return worker_count_; }

  // Offline post-processing: reconstitute a session from a serialized Tagging Dictionary and
  // sample dump (see src/profiling/serialize.h), mirroring the paper's decoupled pipeline of
  // meta-data file + perf script output.
  void LoadForPostProcessing(TaggingDictionary dictionary, std::vector<Sample> samples,
                             uint64_t cycles);
  uint64_t execution_cycles() const { return execution_cycles_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const PmuCounters& counters() const { return counters_; }

  // Post-processing: maps all samples to abstraction levels. Idempotent.
  void Resolve(const CodeMap& code_map);
  const std::vector<ResolvedSample>& resolved() const { return resolved_; }
  AttributionStats Stats() const;

 private:
  ResolvedSample ResolveOne(const Sample& sample, const CodeMap& code_map) const;

  ProfilingConfig config_;
  TaggingDictionary owned_;
  std::shared_ptr<const TaggingDictionary> shared_;  // Set only by Resolved.
  AbstractionTracker<OperatorId> operator_tracker_;
  AbstractionTracker<TaskId> task_tracker_;
  std::vector<Sample> samples_;
  std::vector<ResolvedSample> resolved_;
  PmuCounters counters_;
  uint64_t execution_cycles_ = 0;
  uint32_t worker_count_ = 1;
  bool resolved_done_ = false;
};

}  // namespace dfp

#endif  // DFP_SRC_PROFILING_SESSION_H_
