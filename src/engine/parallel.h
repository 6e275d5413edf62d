// Morsel-driven parallel execution (Umbra-style) on a pool of simulated VCPU workers.
//
// Pipelines whose source is a table scan are split into morsels and scheduled by one of two
// policies. The default NUMA-aware work-stealing scheduler partitions the morsels up-front onto
// per-worker deques by the home node of their rows (the range partition the NumaMap assigns to
// the table's columns); each worker pops its own deque LIFO (cache-warm end) and, when it runs
// dry, steals FIFO from the back of the richest deque (ties to the lowest victim id), paying a
// fixed steal cost and carrying a steal flag into every sample taken during the stolen morsel.
// The legacy central policy dispatches morsels in table order to the worker whose clock is
// lowest (greedy earliest-finish, ties to the lowest id); order-sensitive pipelines (bare
// LIMIT, whose result is "the first N produced") always use it so results stay well-defined.
// Either way the schedule is a deterministic function of the query and the configuration.
// Every worker owns a full core model — its own TSC, cache hierarchy, branch predictor, shadow
// call stack, tag register, and PEBS-like sample buffer — and is pinned to a NUMA node of the
// run's topology (worker id modulo node count), so cross-node accesses are counted per worker
// and pay the remote-DRAM penalty. Host steps (hash-table creation, buffer allocation, sorting)
// and pipelines without a scannable source run on worker 0 while the others idle at a barrier.
// After the run the per-worker sample streams are merged by TSC into one stream whose samples
// carry `worker_id`, so every report works unchanged on parallel runs.
//
// Because the simulator interleaves workers at morsel granularity and each morsel runs to
// completion, all memory effects are serialized; results differ from sequential execution only
// in row order (stealing permutes which morsel appends output first), which every consumer
// treats as equivalent, and repeated runs are bit-identical. Only the simulated clocks (and
// therefore profiles and speedups) differ between the policies.
//
// The executor itself is exposed as the incremental ParallelRun below: QueryEngine's
// ExecuteParallel drives one run to completion, while the query service (src/service/)
// interleaves Step() calls of several runs to multiplex concurrent sessions over one pool.
#ifndef DFP_SRC_ENGINE_PARALLEL_H_
#define DFP_SRC_ENGINE_PARALLEL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/engine/exec_plan.h"
#include "src/engine/result.h"
#include "src/pmu/pmu.h"
#include "src/vcpu/cache.h"
#include "src/vcpu/cpu.h"
#include "src/vcpu/numa.h"

namespace dfp {

class Database;
struct PlanSlack;  // src/critpath/slack.h — expected-slack profile of one fingerprint.
struct StepSlack;

// How scan morsels are assigned to workers. See the file comment for the two policies.
enum class SchedulerPolicy : uint8_t {
  kCentral,       // Table-order dispatch to the earliest-free worker (locality-blind).
  kWorkStealing,  // Node-local deques, LIFO own pops, FIFO steals from the richest deque.
};

struct ParallelConfig {
  uint32_t workers = 4;
  // Tuples per morsel. 0 (the default) derives the size per pipeline from the optimizer's
  // cardinality estimate and the fixed per-morsel dispatch cost (see ResolveMorselRows);
  // a non-zero value forces that fixed size (Umbra uses adaptive sizes; we size per query).
  uint64_t morsel_rows = 0;
  SchedulerPolicy scheduler = SchedulerPolicy::kWorkStealing;
  // Service shard this pool belongs to (1-based; 0 = unsharded). Stamped into every sample the
  // pool's workers take so fan-out attribution survives the coordinator's merge.
  uint32_t shard_id = 0;
};

// Modeled fixed cost of dispatching one morsel (function call, cursor reload, scheduling).
// Used by the morsel sizing heuristic only; the simulator charges the real call costs.
inline constexpr uint64_t kMorselDispatchCycles = 600;

// Modeled fixed cost of one successful steal: the CAS on the victim's deque plus the cold
// cursor handoff. Charged to the thief on top of the morsel's own cycles.
inline constexpr uint64_t kMorselStealCycles = 150;

// Lower bound of the morsel size clamp, and the floor of endgame splitting: once fewer morsels
// remain pending than workers, each taken morsel is halved (remainder returned to its deque)
// until the pieces drop below twice this, so the scan's tail imbalance is bounded by ~one
// minimum-size morsel instead of one full-size morsel.
inline constexpr uint64_t kMinMorselRows = 64;

// Picks the morsel size for one scan pipeline: the configured fixed size if non-zero, otherwise
// large enough that the per-morsel dispatch cost stays ~1% of the estimated morsel work (cheap
// scans get chunkier morsels) but small enough that every worker still sees several morsels.
uint64_t ResolveMorselRows(const ParallelConfig& config, const PipelineArtifact& artifact,
                           uint64_t scan_rows, uint32_t workers);

// Counters of the slack-directed scheduling policy (zero when no slack profile is supplied,
// i.e. under plain FIFO-deal deques). Exposed per run and rolled into bench_service JSON.
struct SchedStats {
  uint64_t slack_ordered_scans = 0;  // Scans whose deques were ordered by an expected-slack hint.
  uint64_t slack_hits = 0;           // Dealt morsels that found a populated hint bucket.
  uint64_t deferred_morsels = 0;     // Morsels pushed toward the steal end (above-min slack).
  uint64_t slack_steals = 0;         // Steals whose victim was chosen by least head-morsel slack.
};

// Per-worker execution metrics of the most recent ExecuteParallel().
struct WorkerMetrics {
  uint32_t worker_id = 0;
  uint8_t node = 0;          // NUMA node this worker is pinned to.
  uint64_t busy_cycles = 0;  // Cycles spent executing morsels/host steps.
  uint64_t idle_cycles = 0;  // Cycles spent waiting at barriers.
  uint64_t morsels = 0;      // Work items executed (morsels + sequential pipeline runs).
  uint64_t steals = 0;       // Morsels this worker stole from another worker's deque.
  uint64_t samples = 0;      // PMU samples taken on this worker.
  // Measured cost of this worker's sample buffer (capture + flush cycles actually charged to
  // its clock) — what the adaptive sampling governor reads.
  SamplingOverhead sampling_overhead;
  PmuCounters counters;
  CacheStats cache_stats;
  CpuStats cpu_stats;
  NumaStats numa_stats;
};

// Scratch regions a run allocates from. QueryEngine::ExecuteParallel passes the database's
// shared regions; the query service passes a session's private region set so concurrent
// sessions never interfere through memory.
struct ScratchRegions {
  uint32_t hashtables = 0;
  uint32_t state = 0;
  uint32_t output = 0;
};

// The host side of an execution, shared by QueryEngine::Execute and ParallelRun. RunHostStep
// performs one hash-table, buffer or sort step of `state`'s query on `cpu`, allocating from
// `regions`. ReadResult reads the result rows and the tuple counters back from `state`.
void RunHostStep(Database& db, const ExecStep& step, const ScratchRegions& regions, VAddr state,
                 Cpu& cpu);
Result ReadResult(const VMem& mem, CompiledQuery& query, VAddr state);

// One morsel-driven execution of a compiled parallel query, advanced one work unit at a time.
// A work unit is a host step, one morsel, a sequential pipeline run, or a sort; barriers are
// applied when an exec step completes. The unit sequence and every worker's clock depend only
// on the query, the configuration, and the region contents — not on how Step() calls are
// interleaved with other runs, which is what makes service sessions profile-isolated.
class ParallelRun {
 public:
  // `sampling` may be null (no PMU sampling). `session_id` is stamped into every sample taken
  // by this run's workers (see Sample::session_id). `slack` may be null (FIFO deques); when
  // set, it is the fingerprint's expected-slack profile from prior executions and the run
  // orders its deques and picks steal victims by it — zero-slack (critical-path) morsels run
  // first, high-slack work is deferred to thieves. The profile only permutes the schedule,
  // never the morsel set, so results stay byte-identical to the unhinted run.
  ParallelRun(Database& db, CompiledQuery& query, const ParallelConfig& config,
              ScratchRegions regions, const SamplingConfig* sampling, uint32_t session_id = 0,
              const PlanSlack* slack = nullptr);
  ~ParallelRun();

  bool done() const { return step_idx_ >= query_.exec_steps.size(); }

  // Executes the next work unit. Returns the worker it ran on and its duration in cycles
  // (0 cycles when only bookkeeping happened, e.g. an empty scan was skipped).
  struct Unit {
    uint32_t worker = 0;
    uint64_t cycles = 0;
  };
  Unit Step();

  // Simulated wall clock so far: the maximum TSC across the pool.
  uint64_t WallCycles() const;

  // After done(): reads the result rows and tuple counters back and computes the merged
  // metrics. Must be called exactly once.
  Result Finish();

  // Valid after Finish().
  const std::vector<WorkerMetrics>& worker_metrics() const { return worker_metrics_; }
  const PmuCounters& merged_counters() const { return merged_counters_; }
  const CacheStats& merged_cache_stats() const { return merged_cache_stats_; }
  const CpuStats& merged_cpu_stats() const { return merged_cpu_stats_; }
  // Measured sampling cost summed over all worker buffers, and the pool's total busy cycles —
  // the measured-overhead-per-executed-cycle pair the sampling governor regulates on.
  const SamplingOverhead& merged_sampling_overhead() const { return merged_sampling_overhead_; }
  uint64_t total_busy_cycles() const { return total_busy_cycles_; }
  // The per-worker sample streams merged by (tsc, worker id); empty without sampling.
  std::vector<Sample> TakeMergedSamples() { return std::move(merged_samples_); }

  // Task-boundary records of every work unit executed so far, in execution order, with
  // per-task PMU counter deltas — what WriteSamples serializes as `task` lines and what the
  // critical-path DAG (src/critpath/) is built from (the query service folds that DAG into
  // its stores at completion and keeps neither). Collected unconditionally: a byproduct of
  // the schedule, not of sampling.
  std::vector<TaskBoundary> TakeTaskBoundaries() { return std::move(task_boundaries_); }

  // Slack-policy counters of this run (all zero when constructed without a slack profile).
  const SchedStats& sched_stats() const { return sched_stats_; }

 private:
  struct Worker;
  struct Morsel {
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  Worker& NextWorker();
  void Barrier();
  // Runs `body` on `w` as one task: re-arms the worker's sampling period for the task's
  // pipeline, charges the elapsed cycles to its busy time, and records a TaskBoundary (with
  // PMU counter deltas) into `task_boundaries_`. `boundary` arrives with kind/step/pipeline/
  // morsel/stolen prefilled; timestamps, worker id, and counters are filled here.
  template <typename Body>
  Unit RunOn(Worker& w, TaskBoundary boundary, const Body& body);
  void BeginScan(const PipelineArtifact& artifact, const PipelineStep& source);
  // Pops the next morsel for `thief` under work stealing: its own deque LIFO, otherwise the
  // richest victim FIFO. Returns false when every deque is empty.
  bool TakeMorsel(uint32_t thief, Morsel* morsel, bool* stolen);

  Database& db_;
  CompiledQuery& query_;
  ParallelConfig config_;
  ScratchRegions regions_;
  NumaMap numa_;
  std::vector<std::unique_ptr<Worker>> workers_;
  VAddr state_ = 0;

  // Cursor over the execution schedule.
  size_t step_idx_ = 0;
  bool in_scan_ = false;
  bool scan_stealing_ = false;  // This scan uses the deques (vs central table-order dispatch).
  const PlanSlack* slack_ = nullptr;       // Whole-plan profile (may be null).
  const StepSlack* scan_slack_ = nullptr;  // Current scan's hint; null = FIFO deal order.
  SchedStats sched_stats_;
  uint64_t scan_rows_ = 0;
  uint64_t scan_next_ = 0;
  uint64_t scan_morsel_rows_ = 0;
  std::vector<std::deque<Morsel>> deques_;  // One per worker; filled at scan entry.
  uint64_t pending_morsels_ = 0;
  std::vector<uint32_t> node_rr_;  // Round-robin cursor per node for deque filling.

  std::vector<WorkerMetrics> worker_metrics_;
  PmuCounters merged_counters_;
  CacheStats merged_cache_stats_;
  CpuStats merged_cpu_stats_;
  SamplingOverhead merged_sampling_overhead_;
  uint64_t total_busy_cycles_ = 0;
  std::vector<Sample> merged_samples_;
  std::vector<TaskBoundary> task_boundaries_;
  // Per-pipeline sampling periods (from SamplingConfig::pipeline_periods) and the uniform
  // fallback period, applied per task in RunOn.
  std::vector<uint64_t> pipeline_periods_;
  uint64_t base_period_ = 0;
  bool sampling_enabled_ = false;
  bool finished_ = false;
};

}  // namespace dfp

#endif  // DFP_SRC_ENGINE_PARALLEL_H_
