#include "src/engine/query_engine.h"

#include "src/util/check.h"
#include "src/vcpu/cpu.h"

namespace dfp {

CompiledQuery QueryEngine::Compile(PhysicalOpPtr plan, ProfilingSession* session,
                                   std::string name, const CodegenOptions& options) {
  return CompileQuery(*db_, std::move(plan), session, std::move(name), options);
}

Result QueryEngine::Execute(CompiledQuery& query) {
  // Parallel-compiled pipelines expect morsel bounds in the argument registers.
  DFP_CHECK(!query.parallel);
  db_->ResetScratch();
  last_worker_metrics_.clear();
  last_task_boundaries_.clear();
  Pmu pmu;
  ProfilingSession* session = query.session;
  if (session != nullptr) {
    pmu.Configure(MakeSamplingConfig(session->config()));
  }
  Cpu cpu(db_->mem(), db_->code_map(), pmu);
  const ScratchRegions regions{db_->hashtables_region(), db_->state_region(),
                               db_->output_region()};
  const VAddr state =
      db_->mem().Alloc(regions.state, std::max<uint64_t>(8, query.state_bytes));
  for (const ExecStep& step : query.exec_steps) {
    if (step.kind == ExecStep::Kind::kRunPipeline) {
      const uint64_t args[] = {state};
      cpu.CallFunction(query.pipelines[step.pipeline].function, args);
    } else {
      RunHostStep(*db_, step, regions, state, cpu);
    }
  }
  Result result = ReadResult(db_->mem(), query, state);

  last_cycles_ = cpu.tsc();
  last_cache_stats_ = cpu.cache().stats();
  last_cpu_stats_ = cpu.stats();
  last_sampling_overhead_ = pmu.overhead();
  if (session != nullptr) {
    session->RecordExecution(pmu.TakeSamples(), cpu.tsc(), pmu.counters());
  }
  return result;
}

Result QueryEngine::Run(PhysicalOpPtr plan, ProfilingSession* session, std::string name) {
  CompiledQuery query = Compile(std::move(plan), session, std::move(name));
  return Execute(query);
}

}  // namespace dfp
