// Morsel-driven parallel execution: the incremental ParallelRun executor and
// QueryEngine::ExecuteParallel driving it to completion.
#include <algorithm>
#include <memory>
#include <vector>

#include "src/critpath/slack.h"
#include "src/engine/query_engine.h"
#include "src/runtime/hashtable.h"
#include "src/util/check.h"
#include "src/vcpu/cpu.h"

namespace dfp {

uint64_t ResolveMorselRows(const ParallelConfig& config, const PipelineArtifact& artifact,
                           uint64_t scan_rows, uint32_t workers) {
  if (config.morsel_rows != 0) {
    return config.morsel_rows;
  }
  // The optimizer's estimate sizes the morsels; the true row count only bounds them below.
  const double estimated = artifact.pipeline.steps[0].op->estimated_rows;
  const uint64_t est_rows =
      estimated > 0 ? static_cast<uint64_t>(estimated) : std::max<uint64_t>(1, scan_rows);
  // Per-row work proxy: the pipeline function is almost entirely its row loop, so its machine
  // instruction count approximates the per-row path length in cycles.
  const uint64_t per_row_cycles = std::max<uint64_t>(8, artifact.stats.machine_instrs / 2);
  // Large enough that the fixed dispatch cost stays ~1% of the morsel's work...
  const uint64_t amortize = kMorselDispatchCycles * 100 / per_row_cycles;
  // ...and small enough that each worker sees a healthy number of morsels to balance over.
  const uint64_t balance = std::max<uint64_t>(1, est_rows / (16ull * workers));
  uint64_t rows = std::max(amortize, balance);
  // Guarantee several morsels per worker even when amortization asks for chunkier ones: the
  // tail imbalance of a scan is about one morsel, so ~8 morsels/worker bounds it near 1/8.
  rows = std::min(rows, std::max<uint64_t>(1, est_rows / (8ull * workers)));
  return std::clamp<uint64_t>(rows, kMinMorselRows, 1ull << 16);
}

namespace {

// Bare LIMIT pipelines produce "the first N tuples the scan emits": their result depends on
// morsel completion order, so they must keep the table-order central dispatch. (LIMIT under a
// sort runs on a sequential sort-scan pipeline and never reaches the morsel scheduler.)
bool OrderSensitive(const PipelineArtifact& artifact) {
  for (const PipelineStep& step : artifact.pipeline.steps) {
    if (step.role == PipelineStep::Role::kLimit) {
      return true;
    }
  }
  return false;
}


}  // namespace

// One simulated core: its own PMU (sample buffer, counters) and CPU (TSC, caches, predictor,
// shadow call stack, tag register), sharing the database's memory and code map.
struct ParallelRun::Worker {
  Worker(Database& db, uint32_t id, uint32_t session_id)
      : cpu(db.mem(), db.code_map(), pmu) {
    cpu.set_worker_id(id);
    cpu.set_session_id(session_id);
  }

  Pmu pmu;
  Cpu cpu;
  uint64_t busy_cycles = 0;
  uint64_t work_items = 0;
  uint64_t steals = 0;
};

ParallelRun::ParallelRun(Database& db, CompiledQuery& query, const ParallelConfig& config,
                         ScratchRegions regions, const SamplingConfig* sampling,
                         uint32_t session_id, const PlanSlack* slack)
    : db_(db), query_(query), config_(config), regions_(regions),
      numa_(config.workers), slack_(slack) {
  DFP_CHECK(query.parallel);  // Must be compiled with CodegenOptions::parallel.
  DFP_CHECK(config.workers >= 1 && config.workers <= kMaxWorkers);

  // Overlay the node map: base table columns are range-partitioned (first-touch placement of
  // morsel-driven loading), this run's scratch regions are chunk-interleaved per-node stripes.
  numa_.AddPartitionedExtents(db.mem());
  for (uint32_t region : {regions_.hashtables, regions_.state, regions_.output}) {
    const MemRegion& r = db.mem().region(region);
    numa_.AddInterleaved(r.base, r.size);
  }
  numa_.Seal();

  workers_.reserve(config.workers);
  for (uint32_t i = 0; i < config.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(db, i, session_id));
    workers_.back()->cpu.set_shard_id(config.shard_id);
    workers_.back()->cpu.ConfigureNuma(&numa_, static_cast<uint8_t>(i % numa_.nodes()));
    if (sampling != nullptr) {
      workers_.back()->pmu.Configure(*sampling);
    }
  }
  deques_.resize(config.workers);
  node_rr_.resize(numa_.nodes(), 0);
  if (sampling != nullptr && sampling->enabled) {
    sampling_enabled_ = true;
    base_period_ = sampling->period;
    pipeline_periods_ = sampling->pipeline_periods;
  }
  state_ = db.mem().Alloc(regions_.state, std::max<uint64_t>(8, query.state_bytes));
}

ParallelRun::~ParallelRun() = default;

// The worker that would start new work earliest; ties go to the lowest id, which makes the
// morsel schedule deterministic.
ParallelRun::Worker& ParallelRun::NextWorker() {
  Worker* best = workers_[0].get();
  for (const auto& w : workers_) {
    if (w->cpu.tsc() < best->cpu.tsc()) {
      best = w.get();
    }
  }
  return *best;
}

// Synchronizes all workers to the slowest clock (idle wait at a pipeline barrier).
void ParallelRun::Barrier() {
  uint64_t max_tsc = 0;
  for (const auto& w : workers_) {
    max_tsc = std::max(max_tsc, w->cpu.tsc());
  }
  for (const auto& w : workers_) {
    w->cpu.AddCycles(max_tsc - w->cpu.tsc());
  }
}

// Runs `body` on `w` as one task, charging the elapsed cycles to its busy time and recording
// the task's boundary with PMU counter deltas (see the declaration comment).
template <typename Body>
ParallelRun::Unit ParallelRun::RunOn(Worker& w, TaskBoundary boundary, const Body& body) {
  if (sampling_enabled_ && !pipeline_periods_.empty()) {
    // Per-pipeline periods: pipeline tasks use their pipeline's entry (0 = keep the base),
    // host steps and sorts sample at the base period.
    uint64_t period = base_period_;
    if (boundary.pipeline != kNoPipeline && boundary.pipeline < pipeline_periods_.size() &&
        pipeline_periods_[boundary.pipeline] != 0) {
      period = pipeline_periods_[boundary.pipeline];
    }
    w.pmu.set_period(period);
  }
  const PmuCounters before_counters = w.pmu.counters();
  const uint64_t before = w.cpu.tsc();
  body(w);
  const uint64_t elapsed = w.cpu.tsc() - before;
  w.busy_cycles += elapsed;
  ++w.work_items;
  boundary.start_tsc = before;
  boundary.end_tsc = w.cpu.tsc();
  boundary.worker_id = w.cpu.worker_id();
  const PmuCounters& after = w.pmu.counters();
  auto delta = [&](PmuEvent e) { return after[e] - before_counters[e]; };
  boundary.instructions = delta(PmuEvent::kInstrRetired);
  boundary.loads = delta(PmuEvent::kLoads);
  boundary.l1_misses = delta(PmuEvent::kL1Miss);
  boundary.l2_misses = delta(PmuEvent::kL2Miss);
  boundary.l3_misses = delta(PmuEvent::kL3Miss);
  boundary.remote_dram = delta(PmuEvent::kRemoteDram);
  task_boundaries_.push_back(boundary);
  Unit unit;
  unit.worker = w.cpu.worker_id();
  unit.cycles = elapsed;
  return unit;
}

uint64_t ParallelRun::WallCycles() const {
  uint64_t max_tsc = 0;
  for (const auto& w : workers_) {
    max_tsc = std::max(max_tsc, w->cpu.tsc());
  }
  return max_tsc;
}

// Opens a scan: sizes its morsels and, under work stealing, deals them onto the deques of the
// workers pinned to each morsel's home node. The home node of a morsel is the node its first
// row's column data lives on (the same `row * nodes / rows` range partition NumaMap applies to
// the column arrays), so popping the own deque touches only local memory. Nodes with several
// workers deal round-robin among them; the cursor persists across scans so repeated small scans
// don't always load the node's first worker.
void ParallelRun::BeginScan(const PipelineArtifact& artifact, const PipelineStep& source) {
  in_scan_ = true;
  scan_rows_ = source.op->table->row_count();
  scan_next_ = 0;
  scan_morsel_rows_ = ResolveMorselRows(config_, artifact, scan_rows_, config_.workers);
  scan_stealing_ =
      config_.scheduler == SchedulerPolicy::kWorkStealing && !OrderSensitive(artifact);
  scan_slack_ = nullptr;
  if (!scan_stealing_) {
    return;
  }
  pending_morsels_ = 0;
  const uint32_t nodes = numa_.nodes();
  // The deal rule is the canonical range partition regardless of any placement override: a
  // repair moves DATA toward the workers that consume it, it never moves the consumers. If the
  // deal chased the placement map, any consistently-applied map — including a deliberately bad
  // one — would realign consumption with the data and measure as local, hiding regressions
  // from the guard.
  for (uint64_t begin = 0; begin < scan_rows_; begin += scan_morsel_rows_) {
    const uint64_t end = std::min(scan_rows_, begin + scan_morsel_rows_);
    const uint32_t node = static_cast<uint32_t>(begin * nodes / scan_rows_);
    // Workers pinned to `node` are {node, node + nodes, node + 2*nodes, ...}.
    const uint32_t on_node = (config_.workers - node - 1) / nodes + 1;
    const uint32_t owner = node + (node_rr_[node]++ % on_node) * nodes;
    deques_[owner].push_back(Morsel{begin, end});
    ++pending_morsels_;
  }
  // Slack-directed ordering: sort each deque by expected slack descending, so the back — the
  // end the owner pops LIFO — holds the least-slack (critical-path) morsels and the front —
  // the steal end — holds the deferrable high-slack work. Under contention the thieves absorb
  // exactly the work whose delay the prior runs' DAGs say the barrier can afford. stable_sort
  // keeps equal-slack morsels in deal order, so the schedule stays deterministic even when the
  // profile is flat.
  if (slack_ == nullptr) {
    return;
  }
  const uint32_t pipeline = query_.exec_steps[step_idx_].pipeline;
  const StepSlack* hint = slack_->FindStep(static_cast<uint32_t>(step_idx_), pipeline);
  if (hint == nullptr) {
    return;
  }
  scan_slack_ = hint;
  ++sched_stats_.slack_ordered_scans;
  for (std::deque<Morsel>& deque : deques_) {
    if (deque.empty()) {
      continue;
    }
    std::stable_sort(deque.begin(), deque.end(), [&](const Morsel& a, const Morsel& b) {
      return hint->SlackAt(a.begin) > hint->SlackAt(b.begin);
    });
    uint64_t min_slack = UINT64_MAX;
    for (const Morsel& m : deque) {
      min_slack = std::min(min_slack, hint->SlackAt(m.begin));
    }
    for (const Morsel& m : deque) {
      const uint64_t s = hint->SlackAt(m.begin);
      if (s != UINT64_MAX) {
        ++sched_stats_.slack_hits;
      }
      if (min_slack != UINT64_MAX && s > min_slack) {
        ++sched_stats_.deferred_morsels;
      }
    }
  }
}

bool ParallelRun::TakeMorsel(uint32_t thief, Morsel* morsel, bool* stolen) {
  if (pending_morsels_ == 0) {
    return false;
  }
  std::deque<Morsel>& own = deques_[thief];
  uint32_t source = thief;
  bool from_front = false;
  if (!own.empty()) {
    *morsel = own.back();  // LIFO: the most recently dealt end stays cache-warm.
    own.pop_back();
    *stolen = false;
  } else {
    uint32_t victim = config_.workers;
    if (scan_slack_ != nullptr) {
      // Slack policy: steal from the victim whose head (steal-end) morsel has the least
      // expected slack — the most urgent deferred work anywhere in the pool — tie-broken to a
      // victim on the thief's own node (the stolen rows stay local), then to the lowest id.
      const uint32_t thief_node = thief % numa_.nodes();
      uint64_t best_slack = 0;
      uint32_t best_remote = 0;
      for (uint32_t i = 0; i < config_.workers; ++i) {
        if (deques_[i].empty()) {
          continue;
        }
        const uint64_t s = scan_slack_->SlackAt(deques_[i].front().begin);
        const uint32_t remote = (i % numa_.nodes()) == thief_node ? 0 : 1;
        if (victim == config_.workers || s < best_slack ||
            (s == best_slack && remote < best_remote)) {
          victim = i;
          best_slack = s;
          best_remote = remote;
        }
      }
      ++sched_stats_.slack_steals;
    } else {
      // Steal from the richest victim (ties to the lowest id) so load drains evenly; take the
      // front — the morsel the victim would reach last, and the coldest in its caches.
      size_t best = 0;
      for (uint32_t i = 0; i < config_.workers; ++i) {
        if (deques_[i].size() > best) {
          best = deques_[i].size();
          victim = i;
        }
      }
    }
    DFP_CHECK(victim < config_.workers);
    *morsel = deques_[victim].front();
    deques_[victim].pop_front();
    *stolen = true;
    source = victim;
    from_front = true;
  }
  --pending_morsels_;
  // Endgame splitting: once fewer morsels remain than workers, halve each taken morsel and
  // return the remainder to the deque it came from. The granularity shrinks geometrically to
  // kMinMorselRows, so the scan's final imbalance is bounded by one minimum-size morsel — a
  // full-size last morsel landing on the worker that also runs the sequential pipeline tail
  // would otherwise stretch the critical path by the whole morsel.
  if (pending_morsels_ < config_.workers && morsel->end - morsel->begin >= 2 * kMinMorselRows) {
    const uint64_t mid = morsel->begin + (morsel->end - morsel->begin) / 2;
    if (from_front) {
      deques_[source].push_front(Morsel{mid, morsel->end});
    } else {
      deques_[source].push_back(Morsel{mid, morsel->end});
    }
    morsel->end = mid;
    ++pending_morsels_;
  }
  return true;
}

void RunHostStep(Database& db, const ExecStep& step, const ScratchRegions& regions, VAddr state,
                 Cpu& cpu) {
  VMem& mem = db.mem();
  switch (step.kind) {
    case ExecStep::Kind::kCreateHashTable: {
      VAddr table =
          CreateHashTable(mem, regions.hashtables, step.ht_capacity, step.ht_payload_bytes);
      mem.Write<uint64_t>(state + step.state_offset0, table);
      // Directory set-up cost (zeroing is modeled; the bytes of a reset region read zero).
      cpu.HostWork(db.runtime().kernel_exec_segment(), 200 + step.ht_capacity / 16);
      return;
    }
    case ExecStep::Kind::kAllocBuffer: {
      VAddr buffer = mem.Alloc(regions.output, step.buffer_bytes);
      mem.Write<uint64_t>(state + step.state_offset0, buffer);
      mem.Write<uint64_t>(state + step.state_offset1, 0);
      cpu.HostWork(db.runtime().kernel_exec_segment(), 100 + step.buffer_bytes / 4096);
      return;
    }
    case ExecStep::Kind::kSort: {
      const uint64_t buffer = mem.Read<uint64_t>(state + step.state_offset0);
      const uint64_t rows = mem.Read<uint64_t>(state + step.state_offset1);
      const uint64_t args[] = {buffer, rows, step.sort_spec};
      cpu.CallFunction(db.runtime().sort_fn(), args);
      return;
    }
    case ExecStep::Kind::kRunPipeline:
      break;
  }
  DFP_UNREACHABLE();
}

Result ReadResult(const VMem& mem, CompiledQuery& query, VAddr state) {
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
  return Result(query.output_schema, std::move(rows));
}

ParallelRun::Unit ParallelRun::Step() {
  while (!done()) {
    const ExecStep& step = query_.exec_steps[step_idx_];
    switch (step.kind) {
      case ExecStep::Kind::kCreateHashTable:
      case ExecStep::Kind::kAllocBuffer:
      case ExecStep::Kind::kSort: {
        TaskBoundary boundary;
        boundary.kind =
            step.kind == ExecStep::Kind::kSort ? TaskKind::kSort : TaskKind::kHostStep;
        boundary.step = static_cast<uint32_t>(step_idx_);
        Unit unit = RunOn(*workers_[0], boundary,
                          [&](Worker& w) { RunHostStep(db_, step, regions_, state_, w.cpu); });
        Barrier();
        ++step_idx_;
        return unit;
      }
      case ExecStep::Kind::kRunPipeline: {
        const PipelineArtifact& artifact = query_.pipelines[step.pipeline];
        const PipelineStep& source = artifact.pipeline.steps[0];
        if (source.role != PipelineStep::Role::kScanSource) {
          // Pipelines over intermediate results (group scans, sort scans) run sequentially.
          TaskBoundary boundary;
          boundary.kind = TaskKind::kSequentialPipeline;
          boundary.step = static_cast<uint32_t>(step_idx_);
          boundary.pipeline = step.pipeline;
          Unit unit = RunOn(*workers_[0], boundary, [&](Worker& w) {
            const uint64_t args[] = {state_, 0, 0};
            w.cpu.CallFunction(artifact.function, args);
          });
          Barrier();
          ++step_idx_;
          return unit;
        }
        // Split the scan into morsels and schedule them by the configured policy.
        if (!in_scan_) {
          BeginScan(artifact, source);
        }
        if (scan_stealing_) {
          // The earliest-free worker pops its own deque (node-local rows) or, empty-handed,
          // steals; samples taken inside a stolen morsel carry the steal flag so its remote
          // traffic stays attributable to the steal.
          Morsel morsel;
          bool stolen = false;
          Worker& next = NextWorker();
          if (TakeMorsel(next.cpu.worker_id(), &morsel, &stolen)) {
            TaskBoundary boundary;
            boundary.kind = TaskKind::kMorsel;
            boundary.step = static_cast<uint32_t>(step_idx_);
            boundary.pipeline = step.pipeline;
            boundary.morsel_begin = morsel.begin;
            boundary.morsel_end = morsel.end;
            boundary.stolen = stolen;
            return RunOn(next, boundary, [&](Worker& w) {
              if (stolen) {
                ++w.steals;
                w.cpu.AddCycles(kMorselStealCycles);
                w.cpu.set_stolen_work(true);
              }
              const uint64_t args[] = {state_, morsel.begin, morsel.end};
              w.cpu.CallFunction(artifact.function, args);
              w.cpu.set_stolen_work(false);
            });
          }
        } else if (scan_next_ < scan_rows_) {
          // Central: dispatch in table order to the earliest-free worker. Serializes the
          // morsels' memory effects identically to a sequential scan, so output row order
          // matches single-threaded execution exactly (required by bare-LIMIT pipelines).
          const uint64_t begin = scan_next_;
          const uint64_t end = std::min(scan_rows_, begin + scan_morsel_rows_);
          scan_next_ = end;
          TaskBoundary boundary;
          boundary.kind = TaskKind::kMorsel;
          boundary.step = static_cast<uint32_t>(step_idx_);
          boundary.pipeline = step.pipeline;
          boundary.morsel_begin = begin;
          boundary.morsel_end = end;
          return RunOn(NextWorker(), boundary, [&](Worker& w) {
            const uint64_t args[] = {state_, begin, end};
            w.cpu.CallFunction(artifact.function, args);
          });
        }
        // Scan exhausted (or empty): close the pipeline and look for the next unit.
        in_scan_ = false;
        scan_slack_ = nullptr;
        Barrier();
        ++step_idx_;
        continue;
      }
    }
  }
  return Unit();
}

Result ParallelRun::Finish() {
  DFP_CHECK(done() && !finished_);
  finished_ = true;
  Result result = ReadResult(db_.mem(), query_, state_);

  // Aggregate metrics: wall clock is the slowest worker (all equal after the final barrier);
  // counters and traffic are summed across the pool.
  merged_counters_ = PmuCounters();
  merged_cache_stats_ = CacheStats();
  merged_cpu_stats_ = CpuStats();
  merged_sampling_overhead_ = SamplingOverhead();
  total_busy_cycles_ = 0;
  worker_metrics_.clear();
  merged_samples_.clear();
  for (uint32_t i = 0; i < config_.workers; ++i) {
    Worker& w = *workers_[i];
    WorkerMetrics metrics;
    metrics.worker_id = i;
    metrics.node = w.cpu.node_id();
    metrics.busy_cycles = w.busy_cycles;
    metrics.idle_cycles = w.cpu.tsc() - w.busy_cycles;
    metrics.morsels = w.work_items;
    metrics.steals = w.steals;
    metrics.samples = w.pmu.samples().size();
    metrics.sampling_overhead = w.pmu.overhead();
    metrics.counters = w.pmu.counters();
    metrics.cache_stats = w.cpu.cache().stats();
    metrics.cpu_stats = w.cpu.stats();
    metrics.numa_stats = w.cpu.numa_stats();
    for (int e = 0; e < kPmuEventCount; ++e) {
      merged_counters_.values[e] += metrics.counters.values[e];
    }
    merged_cache_stats_.accesses += metrics.cache_stats.accesses;
    merged_cache_stats_.l1_misses += metrics.cache_stats.l1_misses;
    merged_cache_stats_.l2_misses += metrics.cache_stats.l2_misses;
    merged_cache_stats_.l3_misses += metrics.cache_stats.l3_misses;
    merged_cpu_stats_.instructions += metrics.cpu_stats.instructions;
    merged_cpu_stats_.calls += metrics.cpu_stats.calls;
    merged_cpu_stats_.max_stack_depth =
        std::max(merged_cpu_stats_.max_stack_depth, metrics.cpu_stats.max_stack_depth);
    merged_sampling_overhead_ += metrics.sampling_overhead;
    total_busy_cycles_ += metrics.busy_cycles;
    worker_metrics_.push_back(metrics);
    std::vector<Sample> samples = w.pmu.TakeSamples();
    merged_samples_.insert(merged_samples_.end(), std::make_move_iterator(samples.begin()),
                           std::make_move_iterator(samples.end()));
  }
  // Merge the per-worker streams into one timeline; each stream is already TSC-sorted, so a
  // stable sort by TSC keeps ties ordered by worker id.
  std::stable_sort(merged_samples_.begin(), merged_samples_.end(),
                   [](const Sample& a, const Sample& b) {
                     return a.tsc != b.tsc ? a.tsc < b.tsc : a.worker_id < b.worker_id;
                   });
  return result;
}

Result QueryEngine::ExecuteParallel(CompiledQuery& query, const ParallelConfig& config,
                                    const PlanSlack* slack) {
  db_->ResetScratch();
  ProfilingSession* session = query.session;
  SamplingConfig sampling;
  if (session != nullptr) {
    sampling = MakeSamplingConfig(session->config());
  }
  const ScratchRegions regions{db_->hashtables_region(), db_->state_region(),
                               db_->output_region()};
  ParallelRun run(*db_, query, config, regions, session != nullptr ? &sampling : nullptr,
                  /*session_id=*/0, slack);
  while (!run.done()) {
    run.Step();
  }
  Result result = run.Finish();

  last_cycles_ = run.WallCycles();
  last_sched_stats_ = run.sched_stats();
  last_cache_stats_ = run.merged_cache_stats();
  last_cpu_stats_ = run.merged_cpu_stats();
  last_sampling_overhead_ = run.merged_sampling_overhead();
  last_worker_metrics_ = run.worker_metrics();
  last_task_boundaries_ = run.TakeTaskBoundaries();
  if (session != nullptr) {
    session->RecordExecution(run.TakeMergedSamples(), last_cycles_, run.merged_counters(),
                             config.workers);
  }
  return result;
}

}  // namespace dfp
