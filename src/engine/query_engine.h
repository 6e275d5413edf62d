// The query engine facade: compile physical plans, execute them on the VCPU, read back results.
#ifndef DFP_SRC_ENGINE_QUERY_ENGINE_H_
#define DFP_SRC_ENGINE_QUERY_ENGINE_H_

#include <string>
#include <vector>

#include "src/engine/codegen.h"
#include "src/engine/database.h"
#include "src/engine/parallel.h"
#include "src/engine/result.h"
#include "src/profiling/session.h"
#include "src/vcpu/cpu.h"

namespace dfp {

class QueryEngine {
 public:
  explicit QueryEngine(Database* db) : db_(db) {}

  // Compiles `plan` (ownership transferred). When `session` is non-null, the compilation
  // populates the session's Tagging Dictionary and emits Register Tagging as configured.
  CompiledQuery Compile(PhysicalOpPtr plan, ProfilingSession* session = nullptr,
                        std::string name = "query",
                        const CodegenOptions& options = CodegenOptions());

  // Runs a compiled query on a fresh VCPU. Per-query scratch memory is reset first, so results
  // of previous executions must be read back before re-executing. When the query was compiled
  // with a profiling session, the PMU is armed with the session's sampling configuration and the
  // collected samples are handed to the session afterwards. The query must not have been
  // compiled with CodegenOptions::parallel (use ExecuteParallel for those).
  Result Execute(CompiledQuery& query);

  // Runs a query compiled with CodegenOptions::parallel on a pool of simulated VCPU workers
  // (see src/engine/parallel.h). Results are identical to single-threaded execution; the
  // session — when attached — receives the merged per-worker sample stream. `slack` (optional)
  // is an expected-slack profile from prior executions (src/critpath/slack.h): the run orders
  // its deques and picks steal victims by it, changing only the schedule, never the results.
  Result ExecuteParallel(CompiledQuery& query, const ParallelConfig& config = ParallelConfig(),
                         const PlanSlack* slack = nullptr);

  // Convenience: compile and execute in one step.
  Result Run(PhysicalOpPtr plan, ProfilingSession* session = nullptr,
             std::string name = "query");

  Database& db() { return *db_; }

  // Metrics of the most recent Execute()/ExecuteParallel(). After a parallel run, cycles are
  // the simulated wall clock (max over workers), counters and cache stats are summed across
  // workers, and last_worker_metrics() has the per-worker breakdown (empty after Execute()).
  uint64_t last_cycles() const { return last_cycles_; }
  const CacheStats& last_cache_stats() const { return last_cache_stats_; }
  const CpuStats& last_cpu_stats() const { return last_cpu_stats_; }
  const std::vector<WorkerMetrics>& last_worker_metrics() const { return last_worker_metrics_; }
  // Measured sampling cost of the most recent execution (capture + flush cycles the PMU
  // actually charged; summed across workers after ExecuteParallel). Zero without sampling.
  const SamplingOverhead& last_sampling_overhead() const { return last_sampling_overhead_; }
  // Task-boundary records of the most recent ExecuteParallel(), in execution order — the input
  // to the critical-path subsystem (src/critpath/). Empty after Execute().
  const std::vector<TaskBoundary>& last_task_boundaries() const { return last_task_boundaries_; }
  // Slack-policy counters of the most recent ExecuteParallel() (all zero without a profile).
  const SchedStats& last_sched_stats() const { return last_sched_stats_; }

 private:
  Database* db_;
  uint64_t last_cycles_ = 0;
  CacheStats last_cache_stats_;
  CpuStats last_cpu_stats_;
  SamplingOverhead last_sampling_overhead_;
  std::vector<WorkerMetrics> last_worker_metrics_;
  std::vector<TaskBoundary> last_task_boundaries_;
  SchedStats last_sched_stats_;
};

}  // namespace dfp

#endif  // DFP_SRC_ENGINE_QUERY_ENGINE_H_
