// Profiling sample records, the raw material of Tailored Profiling.
#ifndef DFP_SRC_PMU_SAMPLE_H_
#define DFP_SRC_PMU_SAMPLE_H_

#include <array>
#include <cstdint>
#include <vector>

namespace dfp {

inline constexpr int kNumMachineRegs = 16;
inline constexpr int kTagRegister = 15;  // Architecturally global register used by Register Tagging.

// `Sample::mem_node` value for accesses outside NUMA-managed memory (or runs without a NUMA
// topology).
inline constexpr uint8_t kNoNumaNode = 0xFF;

// Worker ids are below this bound: a worker pool (src/engine/parallel.h) holds at most this
// many VCPUs, and the sample-stream reader refuses a larger id rather than let it size
// per-worker reports.
inline constexpr uint32_t kMaxWorkers = 64;

// One PEBS-style sample. `ip` is a global instruction pointer (code-segment base + offset).
// `callstack` holds return addresses, innermost caller first, when call-stack sampling is on.
// `worker_id` identifies the VCPU that took the sample; single-threaded runs use worker 0.
// `session_id` identifies the query session the VCPU was executing for when the service layer
// multiplexes concurrent sessions over one worker pool. It is a runtime demultiplexing key and
// is not serialized: dumped streams are always per-session, so the id would be redundant there.
// `mem_node`/`numa_remote` describe the NUMA placement of `addr` when addresses are captured on
// a run with a NUMA topology; `stolen` marks samples taken while the worker executed a morsel
// stolen from another worker's deque (the locality fields of the Figure-12 machinery).
// `tier` records the compilation tier of the code the sample hit (PlanTier numeric value;
// 0 = optimized) so tiered-compilation profiles can attribute cost per tier.
// `shard_id` identifies the service shard whose worker pool took the sample (1-based; 0 =
// unsharded service or single-shard run) so fan-out attribution survives the coordinator's
// merge. `cross_node` marks accesses served by another *machine node's* memory — the shard
// interconnect hop, a distinct and costlier tier than cross-socket `numa_remote`.
struct Sample {
  uint64_t tsc = 0;
  uint64_t ip = 0;
  uint64_t addr = 0;  // Accessed address for memory events, 0 otherwise.
  uint32_t worker_id = 0;
  uint32_t session_id = 0;
  uint32_t shard_id = 0;           // Service shard owning the sampling worker (1-based; 0 = none).
  uint8_t mem_node = kNoNumaNode;  // NUMA node owning `addr`; kNoNumaNode when unmanaged.
  uint8_t tier = 0;                // Compilation tier of the sampled code (PlanTier value).
  bool numa_remote = false;        // `addr` lives on a different node than the sampling worker.
  bool cross_node = false;         // `addr` lives on a different machine node (shard hop).
  bool stolen = false;             // Taken while executing a stolen morsel.
  bool has_registers = false;
  std::array<uint64_t, kNumMachineRegs> regs{};
  std::vector<uint64_t> callstack;
};

// What one task-boundary record delimits. A "task" is one work unit of the morsel-driven
// executor: a host step (hash-table creation, buffer allocation), one scan morsel, one
// sequential (non-scan) pipeline run, or a sort.
enum class TaskKind : uint8_t {
  kHostStep = 0,
  kMorsel = 1,
  kSequentialPipeline = 2,
  kSort = 3,
};

// `TaskBoundary::pipeline` value for tasks that execute no pipeline (host steps, sorts).
inline constexpr uint32_t kNoPipeline = 0xFFFFFFFF;

// One task-boundary record, emitted by ParallelRun for every work unit it executes. The record
// carries everything needed to rebuild the run's task DAG *and* classify its pipelines from a
// recorded stream alone: timestamps and worker id recover the schedule (same-worker chains plus
// the barrier between consecutive exec steps), `step` recovers the barrier groups, and the
// per-task PMU counter deltas feed the roofline-style bottleneck classifier without access to
// the live worker state. Serialized as `task` lines in sample streams (src/profiling/
// serialize.h) and analyzed by src/critpath/.
struct TaskBoundary {
  uint64_t start_tsc = 0;
  uint64_t end_tsc = 0;
  uint32_t worker_id = 0;
  TaskKind kind = TaskKind::kHostStep;
  uint32_t step = 0;                 // Index into CompiledQuery::exec_steps (barrier group).
  uint32_t pipeline = kNoPipeline;   // Pipeline id for kMorsel/kSequentialPipeline tasks.
  uint64_t morsel_begin = 0;         // Row range for kMorsel tasks (after endgame splitting).
  uint64_t morsel_end = 0;
  bool stolen = false;               // Morsel was stolen from another worker's deque.
  // PMU counter deltas over this task (worker counters sampled before/after execution).
  uint64_t instructions = 0;
  uint64_t loads = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_misses = 0;
  uint64_t remote_dram = 0;

  uint64_t duration() const { return end_tsc - start_tsc; }
};

}  // namespace dfp

#endif  // DFP_SRC_PMU_SAMPLE_H_
