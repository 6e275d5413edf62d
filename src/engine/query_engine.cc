#include "src/engine/query_engine.h"

#include "src/runtime/hashtable.h"
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
  VMem& mem = db_->mem();

  const VAddr state = mem.Alloc(db_->state_region(), std::max<uint64_t>(8, query.state_bytes));
  const uint32_t kernel_exec = db_->runtime().kernel_exec_segment();

  for (const ExecStep& step : query.exec_steps) {
    switch (step.kind) {
      case ExecStep::Kind::kCreateHashTable: {
        VAddr table = CreateHashTable(mem, db_->hashtables_region(), step.ht_capacity,
                                      step.ht_payload_bytes);
        mem.Write<uint64_t>(state + step.state_offset0, table);
        // Directory set-up cost (zeroing is modeled, the memory itself is pre-zeroed).
        cpu.HostWork(kernel_exec, 200 + step.ht_capacity / 16);
        break;
      }
      case ExecStep::Kind::kAllocBuffer: {
        VAddr buffer = mem.Alloc(db_->output_region(), step.buffer_bytes);
        mem.Write<uint64_t>(state + step.state_offset0, buffer);
        mem.Write<uint64_t>(state + step.state_offset1, 0);
        cpu.HostWork(kernel_exec, 100 + step.buffer_bytes / 4096);
        break;
      }
      case ExecStep::Kind::kRunPipeline: {
        const uint64_t args[] = {state};
        cpu.CallFunction(query.pipelines[step.pipeline].function, args);
        break;
      }
      case ExecStep::Kind::kSort: {
        const uint64_t buffer = mem.Read<uint64_t>(state + step.state_offset0);
        const uint64_t rows = mem.Read<uint64_t>(state + step.state_offset1);
        const uint64_t args[] = {buffer, rows, step.sort_spec};
        cpu.CallFunction(db_->runtime().sort_fn(), args);
        break;
      }
    }
  }

  // Read the result rows back host-side.
  const VAddr out_base = mem.Read<uint64_t>(state + query.out_base_offset);
  const uint64_t out_count = mem.Read<uint64_t>(state + query.out_count_offset);
  const size_t columns = query.output_schema.size();
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(out_count);
  for (uint64_t r = 0; r < out_count; ++r) {
    std::vector<int64_t> row(columns);
    for (size_t c = 0; c < columns; ++c) {
      row[c] = mem.Read<int64_t>(out_base + r * query.output_row_size + c * 8);
    }
    rows.push_back(std::move(row));
  }

  // EXPLAIN-ANALYZE-style tuple counters, when compiled in.
  query.tuple_counts.clear();
  for (const auto& [task, offset] : query.tuple_count_slots) {
    query.tuple_counts[task] = mem.Read<uint64_t>(state + offset);
  }

  last_cycles_ = cpu.tsc();
  last_cache_stats_ = cpu.cache().stats();
  last_cpu_stats_ = cpu.stats();
  last_sampling_overhead_ = pmu.overhead();
  if (session != nullptr) {
    session->RecordExecution(pmu.TakeSamples(), cpu.tsc(), pmu.counters());
  }
  return Result(query.output_schema, std::move(rows));
}

Result QueryEngine::Run(PhysicalOpPtr plan, ProfilingSession* session, std::string name) {
  CompiledQuery query = Compile(std::move(plan), session, std::move(name));
  return Execute(query);
}

}  // namespace dfp
