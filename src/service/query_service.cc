#include "src/service/query_service.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "src/engine/codegen.h"
#include "src/plan/physical.h"
#include "src/profiling/reports.h"
#include "src/replay/recorder.h"
#include "src/tiering/patch.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {

uint64_t ServiceArenaBytes(const ServiceConfig& config) {
  const uint64_t per_session = config.session_hashtables_bytes + config.session_state_bytes +
                               config.session_output_bytes + 3 * kCacheCongruenceBytes;
  return config.max_active_sessions * per_session;
}

// One in-flight query: its own virtual worker pool (inside `run`) over its slot's private
// regions. The object is heap-allocated so the SamplingConfig and run stay pinned while the
// active list grows and shrinks.
struct QueryService::ActiveSession {
  TicketId ticket = 0;
  CachedPlanPtr entry;
  size_t slot = 0;
  std::unique_ptr<ParallelRun> run;
};

namespace {

// Creates a scratch region whose base is congruent to `model_base` modulo the cache-congruence
// stride, burning the gap as an anonymous pad region when needed.
uint32_t CreateCongruentRegion(Database& db, const std::string& name, uint64_t size,
                               uint64_t model_base) {
  const uint64_t stride = kCacheCongruenceBytes;
  const uint64_t next = db.mem().next_base();
  const uint64_t pad = (model_base % stride + stride - next % stride) % stride;
  if (pad != 0) {
    db.CreateScratchRegion(name + ".pad", pad);
  }
  return db.CreateScratchRegion(name, size);
}

// The one transition of a guarded action: sets `state`, stamps its TSC, and appends the
// sideband line "<kind> <fingerprint>[ <subject>] <state>[ <note>]" to `events`.
template <typename Payload>
void Transition(GuardedAction<Payload>& action, GuardState state, uint64_t tsc,
                std::vector<SampleStreamEvent>& events, const std::string& note = "") {
  action.state = state;
  if (state == GuardState::kDecided) {
    action.decided_tsc = tsc;
  } else if (state == GuardState::kApplied) {
    action.applied_tsc = tsc;
  } else {
    action.resolved_tsc = tsc;
  }
  std::string text = std::string(Payload::kName) + " " + Hex16(action.fingerprint);
  const std::string subject = action.payload.Subject();
  if (!subject.empty()) {
    text += " " + subject;
  }
  text += std::string(" ") + GuardStateName(state);
  if (!note.empty()) {
    text += " " + note;
  }
  events.push_back({tsc, std::move(text)});
}

}  // namespace

QueryService::QueryService(Database& db, ServiceConfig config)
    : db_(db),
      config_(std::move(config)),
      cache_(config_.code_budget_bytes, config_.tiering.enabled),
      windows_(config_.continuous.window),
      governor_(config_.continuous.governor),
      controller_(config_.tiering),
      slack_(config_.sched.slack_max_age),
      seen_catalog_version_(db.catalog_version()),
      lane_cycles_(config_.parallel.workers, 0) {
  DFP_CHECK(config_.max_active_sessions >= 1);
  // Re-optimization installs candidates through the parameterized cache's atomic swap and
  // re-binds their immediates; without tiering there is no patchable entry to swap.
  DFP_CHECK(!config_.reopt.enabled || config_.tiering.enabled);
  LoadState();
  // One region set per session slot, each congruent to the engine's shared regions so a
  // session's cache behavior matches a standalone run on the shared regions exactly.
  const uint64_t ht_base = db_.mem().region(db_.hashtables_region()).base;
  const uint64_t state_base = db_.mem().region(db_.state_region()).base;
  const uint64_t out_base = db_.mem().region(db_.output_region()).base;
  for (uint32_t s = 0; s < config_.max_active_sessions; ++s) {
    const std::string prefix = "session" + std::to_string(s) + ".";
    ScratchRegions regions;
    regions.hashtables = CreateCongruentRegion(db_, prefix + "hashtables",
                                               config_.session_hashtables_bytes, ht_base);
    regions.state =
        CreateCongruentRegion(db_, prefix + "state", config_.session_state_bytes, state_base);
    regions.output =
        CreateCongruentRegion(db_, prefix + "output", config_.session_output_bytes, out_base);
    slots_.push_back(regions);
    free_slots_.push_back(s);
  }
}

QueryService::~QueryService() { SaveState(); }

void QueryService::LoadState() {
  if (config_.state_path.empty()) {
    return;
  }
  std::ifstream in(config_.state_path);
  if (!in) {
    return;  // First start: nothing persisted yet.
  }
  uint64_t clock = 0;
  fleet_ = ReadServiceProfile(in, &windows_, &baseline_, &clock, &slack_, &cards_, &reopts_);
  // Resume the service clock: every lane starts at the persisted high-water mark, so new
  // executions fold into windows strictly after the persisted ones (the window rings reject
  // out-of-order indices).
  std::fill(lane_cycles_.begin(), lane_cycles_.end(), clock);
}

void QueryService::SaveState() const {
  if (config_.state_path.empty()) {
    return;
  }
  std::ofstream out(config_.state_path);
  if (!out) {
    return;
  }
  WriteServiceState(fleet_, windows_, baseline_, ServiceNowCycles(), out, &slack_, &cards_,
                    &reopts_);
}

const QueryTicket& QueryService::ticket(TicketId id) const {
  DFP_CHECK(id >= 1 && id <= tickets_.size());
  return *tickets_[id - 1];
}

TicketId QueryService::Submit(PhysicalOpPtr plan, std::string name, uint64_t deadline_cycles,
                              uint32_t weight) {
  auto ticket = std::make_unique<QueryTicket>();
  ticket->id = static_cast<TicketId>(tickets_.size() + 1);
  ticket->name = std::move(name);
  ticket->fingerprint = FingerprintPlan(*plan, db_.catalog_version());
  ticket->weight = std::max<uint32_t>(1, weight);
  ticket->deadline_cycles =
      deadline_cycles != 0 ? deadline_cycles : config_.default_deadline_cycles;
  // Slack-aware admission: a deadline below the fingerprint's expected critical-path length
  // cannot be met even on an idle pool (the path is the lower bound of any schedule), so the
  // query is bounced at submission instead of burning pool time and timing out mid-run. An
  // unobserved fingerprint (expected == 0) always passes — the first execution is how the
  // store learns.
  if (config_.sched.deadline_admission && ticket->deadline_cycles != 0) {
    const uint64_t expected =
        slack_.ExpectedCriticalPathCycles(ticket->fingerprint.structure);
    if (expected > ticket->deadline_cycles) {
      ticket->status = TicketStatus::kRejected;
      ticket->infeasible_deadline = true;
      ++infeasible_rejections_;
      sched_events_.push_back(
          {ServiceNowCycles(), "admission " + Hex16(ticket->fingerprint.structure) +
                                   " infeasible deadline " +
                                   std::to_string(ticket->deadline_cycles) + " expected " +
                                   std::to_string(expected)});
      tickets_.push_back(std::move(ticket));
      if (recorder_ != nullptr) {
        recorder_->OnSubmit(*tickets_.back(), *plan, ServiceNowCycles());
      }
      return tickets_.back()->id;
    }
  }
  if (queue_.size() >= config_.queue_depth) {
    ticket->status = TicketStatus::kRejected;
    tickets_.push_back(std::move(ticket));
    if (recorder_ != nullptr) {
      // `plan` is still alive on the rejected path; the recorder captures the submission so a
      // replay reproduces the same queue pressure (and the same rejection).
      recorder_->OnSubmit(*tickets_.back(), *plan, ServiceNowCycles());
    }
    return tickets_.back()->id;
  }
  ticket->pending_plan = std::move(plan);
  ticket->status = TicketStatus::kQueued;
  queue_.push_back(ticket->id);
  tickets_.push_back(std::move(ticket));
  if (recorder_ != nullptr) {
    recorder_->OnSubmit(*tickets_.back(), *tickets_.back()->pending_plan, ServiceNowCycles());
  }
  return tickets_.back()->id;
}

void QueryService::AttachRecorder(TraceRecorder& recorder) {
  DFP_CHECK(tickets_.empty());
  recorder.OnAttach(config_, db_.catalog_version(), ServiceNowCycles());
  recorder_ = &recorder;
}

void QueryService::ChargeSerialWork(uint64_t cycles) {
  auto least = std::min_element(lane_cycles_.begin(), lane_cycles_.end());
  *least += cycles;
}

bool QueryService::EntryBusy(const CachedPlanPtr& entry) const {
  for (const std::unique_ptr<ActiveSession>& session : active_) {
    if (session->entry == entry) {
      return true;
    }
  }
  return false;
}

bool QueryService::InvalidateCache() {
  if (db_.catalog_version() == seen_catalog_version_) {
    return false;
  }
  cache_.InvalidateAll();
  recompile_jobs_.clear();
  seen_catalog_version_ = db_.catalog_version();
  return true;
}

bool QueryService::Admit(TicketId id) {
  QueryTicket& ticket = TicketRef(id);

  // Schema changes retire every cached artifact; the new catalog version is already mixed into
  // fingerprints taken after the change, so this only reclaims budget from unreachable entries.
  // Pending background recompilations of retired entries die with them.
  InvalidateCache();

  const bool parameterized = config_.tiering.enabled;
  PlanLiterals incoming;
  if (parameterized && ticket.pending_plan != nullptr) {
    incoming = ExtractLiterals(*ticket.pending_plan);
  }

  // Quiescence check before committing to admission: re-binding a cached entry patches its
  // machine code in place, so an in-flight session still executing that code must drain first.
  // The ticket stays at the queue head; the scheduler steps the blockers and retries.
  if (parameterized) {
    CachedPlanPtr resident = cache_.Peek(ticket.fingerprint);
    if (resident != nullptr &&
        resident->fingerprint.literals != ticket.fingerprint.literals &&
        EntryBusy(resident)) {
      return false;
    }
  }

  CachedPlanPtr entry = cache_.Lookup(ticket.fingerprint);
  if (entry != nullptr) {
    ticket.cache_hit = true;
    ticket.compile_cycles = config_.compile_costs.cache_lookup_cycles;
    if (parameterized) {
      // Re-bind the cached code to this ticket's literals (zero sites when they already
      // match). The Tagging Dictionary snapshot is untouched: a patched plan attributes
      // exactly like the original compile.
      const PlanLiterals* bind = &incoming;
      PlanLiterals permuted;
      if (!entry->literal_permutation.empty()) {
        // A re-optimized entry reads its literals in rewritten-plan order (see
        // CachedPlan::literal_permutation); route each submission slot to the sites it feeds.
        permuted.bindings.reserve(entry->literal_permutation.size());
        for (uint32_t slot : entry->literal_permutation) {
          DFP_CHECK(slot < incoming.bindings.size());
          permuted.bindings.push_back(incoming.bindings[slot]);
        }
        bind = &permuted;
      }
      ticket.patched_sites = PatchCachedPlan(db_, *entry, *bind,
                                             ticket.fingerprint.literals);
      if (ticket.patched_sites > 0) {
        cache_.NotePatchedHit();
        ticket.compile_cycles +=
            ticket.patched_sites * config_.compile_costs.patch_per_site_cycles;
      }
    }
    ticket.pending_plan.reset();  // The cached artifact replaces the submitted plan.
  } else {
    // Cold path: run the full compile with a profiling session attached, so the Tagging
    // Dictionary is built once and snapshotted with the artifact. Under tiering, first
    // compiles run at the cheap baseline tier (no optimization passes) with slot-tagged
    // literals; the controller promotes hot fingerprints later.
    const PlanTier tier = parameterized ? PlanTier::kBaseline : PlanTier::kOptimized;
    ProfilingSession compile_session(config_.profiling);
    CodegenOptions options;
    options.parallel = true;
    options.optimize_ir = tier == PlanTier::kOptimized;
    // Re-optimization needs exact per-operator row counts: compile with tuple counters. The
    // counters live in the session state block, so the flag changes generated code — that is
    // part of the reopt opt-in, like the governor's period retuning.
    options.count_tuples = config_.reopt.enabled;
    if (parameterized) {
      options.literals = &incoming;
    }
    entry = std::make_shared<CachedPlan>();
    entry->query = CompileQuery(db_, std::move(ticket.pending_plan),
                                config_.profile_executions ? &compile_session : nullptr,
                                ticket.name, options);
    entry->query.session = nullptr;  // The compile session dies here; executions bring their own.
    entry->fingerprint = ticket.fingerprint;
    entry->name = ticket.name;
    entry->dictionary = compile_session.dictionary();
    entry->catalog_version = db_.catalog_version();
    entry->code_bytes = CompiledCodeBytes(entry->query, db_.code_map());
    entry->compile_cycles = EstimateCompileCycles(entry->query, config_.compile_costs, tier);
    entry->tier = tier;
    // The expr -> slot map points into the plan CompileQuery just took ownership of (it lives
    // in entry->query.plan), so the bindings stay resolvable for background recompiles.
    entry->literals = std::move(incoming);
    ticket.compile_cycles = entry->compile_cycles;
    cache_.Insert(entry);
  }
  ticket.tier = entry->tier;
  ChargeSerialWork(ticket.compile_cycles);
  fleet_.RecordCompile(ticket.fingerprint, ticket.name, ticket.compile_cycles, ticket.cache_hit);

  DFP_CHECK(!free_slots_.empty());
  const size_t slot = free_slots_.front();
  free_slots_.erase(free_slots_.begin());
  const ScratchRegions& regions = slots_[slot];
  db_.mem().ResetRegion(regions.hashtables);
  db_.mem().ResetRegion(regions.state);
  db_.mem().ResetRegion(regions.output);

  auto session = std::make_unique<ActiveSession>();
  session->ticket = id;
  session->entry = entry;
  session->slot = slot;
  ticket.plan = entry;

  SamplingConfig sampling;
  const SamplingConfig* sampling_ptr = nullptr;
  if (config_.profile_executions) {
    // The governor (when enabled) overrides the configured period with the fingerprint's tuned
    // one, so each plan family converges on its own overhead-budgeted sampling rate.
    ProfilingConfig profiling = config_.profiling;
    profiling.period =
        governor_.PeriodFor(ticket.fingerprint.structure, config_.profiling.period);
    ticket.sampling_period = profiling.period;
    ticket.session = std::make_unique<ProfilingSession>(profiling);
    // The snapshot taken at compile time makes warm executions resolve exactly like the cold one.
    ticket.session->dictionary() = entry->dictionary;
    sampling = ticket.session->MakeSamplingConfig();
    // Criticality-weighted periods (empty until a critical-path analysis of this fingerprint
    // exists): on-path pipelines sample finer than the base period, off-path ones coarser.
    sampling.pipeline_periods = governor_.PipelinePeriods(
        ticket.fingerprint.structure, profiling.period, entry->query.pipelines.size());
    sampling_ptr = &sampling;
  }
  // Slack-directed scheduling: hand the run this fingerprint's expected-slack profile (null on
  // the first execution, or when the feature is off — either way the run deals FIFO deques).
  const PlanSlack* slack_hint =
      config_.sched.slack_scheduling ? slack_.Find(ticket.fingerprint.structure) : nullptr;
  session->run = std::make_unique<ParallelRun>(db_, entry->query, config_.parallel, regions,
                                               sampling_ptr, id, slack_hint);
  ticket.status = TicketStatus::kRunning;
  active_.push_back(std::move(session));
  return true;
}

bool QueryService::StepSession(ActiveSession& session) {
  QueryTicket& ticket = TicketRef(session.ticket);
  const ParallelRun::Unit unit = session.run->Step();
  lane_cycles_[unit.worker] += unit.cycles;

  if (ticket.deadline_cycles != 0 && !session.run->done() &&
      session.run->WallCycles() > ticket.deadline_cycles) {
    // Abandon the run: its partial state lives entirely in the slot's private regions, which are
    // reset at the next admission.
    ticket.status = TicketStatus::kTimedOut;
    ticket.execute_cycles = session.run->WallCycles();
    ticket.completed_at_cycles = ServiceNowCycles();
    ticket.session.reset();
    if (recorder_ != nullptr) {
      recorder_->OnCompletion(ticket);
    }
    return true;
  }
  if (!session.run->done()) {
    return false;
  }

  ticket.result = session.run->Finish();
  ticket.execute_cycles = session.run->WallCycles();
  ticket.worker_metrics = session.run->worker_metrics();
  ticket.completed_at_cycles = ServiceNowCycles();
  ticket.status = TicketStatus::kDone;
  ticket.sampling_overhead = session.run->merged_sampling_overhead();
  ticket.busy_cycles = session.run->total_busy_cycles();

  // Critical-path analysis of the realized schedule: rebuild the task DAG from the run's
  // boundary records, classify each pipeline, and fan the result out to every consumer — the
  // fleet tracker (reports), the governor (per-pipeline periods for the NEXT execution of this
  // fingerprint), and the service profile (`crit` lines). The tier controller reads the
  // tracker's cumulative critical work below.
  ticket.task_boundaries = session.run->TakeTaskBoundaries();
  ticket.dag = BuildTaskDag(ticket.task_boundaries);
  ticket.verdicts = ClassifyPipelines(ticket.dag);
  if (!ticket.dag.nodes.empty()) {
    critpath_.Observe(ticket.fingerprint.structure, ticket.name, ticket.dag, ticket.verdicts);
    std::vector<uint64_t> shares;
    for (const PipelineCriticality& p : ticket.dag.pipelines) {
      if (p.pipeline >= shares.size()) {
        shares.resize(p.pipeline + 1, 0);
      }
      shares[p.pipeline] = p.share_pct;
    }
    governor_.ObserveCriticality(ticket.fingerprint.structure, ticket.name, std::move(shares));
    const PlanCriticality* crit = critpath_.Find(ticket.fingerprint.structure);
    if (crit != nullptr) {
      fleet_.RecordCriticality(ticket.fingerprint, ticket.name, ticket.dag.critical_work_cycles,
                               crit->top_share_pct, BottleneckName(crit->dominant_label()));
    }
  }

  // The per-operator aggregation is built once and shared by the cumulative fleet profile and
  // the windowed profile, so both views always agree on attribution.
  OperatorProfile profile;
  if (ticket.session != nullptr) {
    // Stamp every sample with the tier the code that produced it was compiled at, so profiles
    // can attribute cost per tier even across a mid-stream promotion.
    std::vector<Sample> samples = session.run->TakeMergedSamples();
    if (session.entry->tier != PlanTier::kOptimized) {
      for (Sample& sample : samples) {
        sample.tier = static_cast<uint8_t>(session.entry->tier);
      }
    }
    ticket.session->RecordExecution(std::move(samples), ticket.execute_cycles,
                                    session.run->merged_counters(), config_.parallel.workers);
    ticket.session->Resolve(db_.code_map());
    profile = BuildOperatorProfile(*ticket.session, session.entry->query);
    governor_.Observe(ticket.fingerprint.structure, ticket.name, ticket.sampling_overhead,
                      ticket.busy_cycles,
                      session.run->merged_counters()[config_.profiling.event],
                      ticket.sampling_period);
  }
  // Unprofiled executions still count toward the fleet's execute-cycle totals (empty profile).
  fleet_.RecordExecution(ticket.fingerprint, session.entry->query, profile,
                         ticket.execute_cycles);
  if (config_.continuous.windows_enabled) {
    windows_.Record(ticket.fingerprint.structure, ticket.name, ticket.completed_at_cycles,
                    profile, session.run->merged_counters(), ticket.execute_cycles,
                    ticket.result.row_count(), ticket.sampling_period, session.entry->tier);
  }
  // Profile-feedback scheduling: roll this run's slack-policy counters into the pool-wide
  // totals, fold the DAG into the expected-slack store (the profile the NEXT execution of this
  // fingerprint schedules and admits by), and step the guarded placement-repair loop. The store
  // only learns when a consumer of it is enabled, so a default-config service keeps producing
  // byte-identical state files.
  const SchedStats& run_sched = session.run->sched_stats();
  sched_stats_.slack_ordered_scans += run_sched.slack_ordered_scans;
  sched_stats_.slack_hits += run_sched.slack_hits;
  sched_stats_.deferred_morsels += run_sched.deferred_morsels;
  sched_stats_.slack_steals += run_sched.slack_steals;
  if (!ticket.dag.nodes.empty() &&
      (config_.sched.slack_scheduling || config_.sched.deadline_admission)) {
    slack_.Observe(ticket.fingerprint.structure, ticket.name, ticket.dag);
  }
  if (config_.sched.placement_repair && !ticket.dag.nodes.empty()) {
    StepPlacementRepair(ticket);
  }
  // Tier ladder: feed the controller the windowed evidence for this fingerprint; a promotion
  // decision enqueues a background recompile at the optimizing tier on the (serial) background
  // compile lane. The swap happens between steps, in ProcessRecompiles.
  if (config_.tiering.enabled && session.entry->tier == PlanTier::kBaseline) {
    const uint64_t opt_cycles =
        EstimateCompileCycles(session.entry->query, config_.compile_costs, PlanTier::kOptimized);
    if (controller_.Observe(ticket.fingerprint.structure, ticket.name, windows_,
                            ticket.execute_cycles, opt_cycles, ticket.completed_at_cycles,
                            critpath_.CriticalWorkCycles(ticket.fingerprint.structure))) {
      RecompileJob job;
      job.source = session.entry;
      const uint64_t start = std::max(ServiceNowCycles(), recompile_lane_busy_cycles_);
      job.ready_at_cycles = start + opt_cycles;
      job.compile_cycles = opt_cycles;
      recompile_lane_busy_cycles_ = job.ready_at_cycles;
      recompile_jobs_.push_back(std::move(job));
      tier_events_.push_back({ticket.completed_at_cycles,
                              "tier " + Hex16(ticket.fingerprint.structure) +
                                  " baseline optimized decided"});
    }
  }
  // Closed-loop re-optimization: fold this execution's exact tuple counts into the cardinality
  // store (the counters ran inside the generated code, so the counts are the ground truth the
  // estimates tried to predict), then step the guarded re-plan loop — trigger a candidate,
  // or keep/revert an applied one.
  if (config_.reopt.enabled) {
    const CardinalityMap observed = ObservedCardinalities(session.entry->query);
    if (!observed.empty()) {
      cards_.Observe(ticket.fingerprint.structure, ticket.name, observed,
                     EstimatedCardinalities(*session.entry->query.plan));
    }
    StepReopt(ticket, session.entry);
  }
  if (recorder_ != nullptr) {
    recorder_->OnCompletion(ticket);
  }
  return true;
}

template <typename Payload, typename Revert>
bool QueryService::ResolveGuarded(GuardedAction<Payload>& action,
                                  const RegressionThresholds& thresholds,
                                  std::vector<SampleStreamEvent>& events, Revert revert) {
  if (action.state != GuardState::kApplied || !action.baseline) {
    return false;
  }
  // Re-measure: judge the windows that arrived after the apply against the action's own
  // pre-apply snapshot. Insufficient evidence keeps measuring.
  const GuardVerdict verdict = JudgeRegression(*action.baseline, windows_, thresholds);
  if (verdict == GuardVerdict::kInsufficientEvidence) {
    return false;
  }
  if (verdict == GuardVerdict::kRegressed) {
    revert(action.payload);
  }
  Transition(action, verdict == GuardVerdict::kRegressed ? GuardState::kReverted
                                                         : GuardState::kKept,
             ServiceNowCycles(), events);
  return true;
}

void QueryService::StepReopt(QueryTicket& ticket, const CachedPlanPtr& entry) {
  const uint64_t fp = ticket.fingerprint.structure;
  if (GuardedAction<ReoptPayload>* open = reopts_.Find(fp)) {
    // A decided action is still compiling on the lane; a resolved one blocks re-triggering.
    if (open->state == GuardState::kApplied && open->payload.previous == nullptr) {
      // Loaded from a persisted profile: the swap did not survive the restart (a cold cache
      // re-admits the original plan), so the honest resolution is a revert.
      Transition(*open, GuardState::kReverted, ServiceNowCycles(), reopt_events_);
    } else if (ResolveGuarded(*open, config_.reopt.guard, reopt_events_,
                              [this](const ReoptPayload& reopt) {
                                // Re-insert the replaced entry: its machine code never left
                                // the code map, so this is the apply's atomic pointer swap in
                                // the other direction.
                                cache_.Insert(reopt.previous);
                              })) {
      open->payload.previous.reset();
    }
    return;  // One action per fingerprint: the loop never oscillates.
  }

  // Trigger: enough executions to trust the EWMAs, worst divergence past the threshold, and no
  // recompile of this family already on the lane (re-plan from the swapped result instead).
  const PlanCards* cards = cards_.Find(fp);
  if (cards == nullptr || cards->executions < config_.reopt.min_executions) {
    return;
  }
  const uint64_t divergence = cards_.MaxDivergencePct(fp);
  if (divergence < config_.reopt.divergence_pct) {
    return;
  }
  for (const RecompileJob& job : recompile_jobs_) {
    if (job.source->fingerprint.structure == fp) {
      return;
    }
  }
  CardinalityMap observed;
  for (const auto& [op, card] : cards->operators) {
    observed[op] = std::max<uint64_t>(card.observed_rows, 1);
  }
  ReoptRewriteOptions rewrite_options;
  rewrite_options.pessimize = config_.reopt.pessimize;
  rewrite_options.semi_join_reduction = config_.reopt.semi_join_reduction;
  rewrite_options.semi_join_blowup_pct = config_.reopt.semi_join_blowup_pct;
  ReoptRewrite rewrite = ReoptimizePlan(*entry->query.plan, observed, rewrite_options);
  if (!rewrite.changed) {
    return;
  }
  RecompileJob job;
  job.source = entry;
  job.candidate_plan = std::move(rewrite.plan);
  job.literal_permutation = ReoptLiteralPermutation(*entry->query.plan, observed,
                                                   rewrite_options);
  job.compile_cycles = EstimateCompileCycles(entry->query, config_.compile_costs, entry->tier);
  const uint64_t start = std::max(ServiceNowCycles(), recompile_lane_busy_cycles_);
  job.ready_at_cycles = start + job.compile_cycles;
  recompile_lane_busy_cycles_ = job.ready_at_cycles;
  recompile_jobs_.push_back(std::move(job));

  GuardedAction<ReoptPayload>* action = reopts_.Add(
      {.fingerprint = fp,
       .plan_name = ticket.name,
       .payload = {rewrite.description, divergence, rewrite.reordered, rewrite.semi_join, entry}});
  Transition(*action, GuardState::kDecided, ServiceNowCycles(), reopt_events_,
             "divergence " + std::to_string(divergence) + "% " + rewrite.description);
}

void QueryService::StepPlacementRepair(QueryTicket& ticket) {
  const uint64_t fp = ticket.fingerprint.structure;
  if (GuardedAction<RepairPayload>* open = repairs_.Find(fp)) {
    ResolveGuarded(*open, config_.continuous.regression, sched_events_,
                   [this](const RepairPayload& repair) {
                     // Restore the default placement.
                     const Table& table = db_.table(repair.table);
                     for (size_t c = 0; c < table.schema().columns.size(); ++c) {
                       db_.mem().ClearExtentPlacement(table.column_base(c));
                     }
                   });
    return;  // One action per fingerprint: the loop never oscillates.
  }
  // Trigger: the first remote-DRAM-bound verdict on a pipeline that scans a base table. The
  // observed DAG names the worker that consumed each morsel, so the repair re-partitions the
  // table's column extents toward those consumers' nodes.
  for (const PipelineVerdict& v : ticket.verdicts) {
    if (v.label != Bottleneck::kRemoteDramBound) {
      continue;
    }
    const CompiledQuery& query = ticket.plan->query;
    if (v.pipeline >= query.pipelines.size()) {
      continue;
    }
    const Pipeline& pipeline = query.pipelines[v.pipeline].pipeline;
    if (pipeline.steps.empty() ||
        pipeline.steps[0].role != PipelineStep::Role::kScanSource ||
        pipeline.steps[0].op == nullptr || pipeline.steps[0].op->table == nullptr) {
      continue;  // Sort-scan / group-scan pipelines have no extents to move.
    }
    const Table& table = *pipeline.steps[0].op->table;
    uint32_t nodes = config_.parallel.numa_nodes != 0 ? config_.parallel.numa_nodes
                                                      : config_.parallel.workers;
    nodes = std::min(nodes, config_.parallel.workers);
    PartitionMap map =
        ComputeConsumerPlacement(ticket.dag, v.pipeline, nodes, config_.sched.repair_pessimize);
    if (map.empty()) {
      continue;
    }
    GuardedAction<RepairPayload>* action = repairs_.Add(
        {.fingerprint = fp,
         .plan_name = ticket.name,
         .payload = {table.name(), v.pipeline, std::move(map)}});
    const uint64_t now = ServiceNowCycles();
    Transition(*action, GuardState::kDecided, now, sched_events_);
    for (size_t c = 0; c < table.schema().columns.size(); ++c) {
      db_.mem().SetExtentPlacement(table.column_base(c), action->payload.placement);
    }
    // The guard's yardstick: everything in the windows up to and including this (pre-repair)
    // execution. JudgeRegression rolls up strictly after this watermark, so only post-apply
    // executions are measured against it.
    action->baseline =
        SnapshotPlanBaseline(windows_, fp, config_.continuous.regression.min_samples);
    Transition(*action, GuardState::kApplied, now, sched_events_);
    return;  // At most one new action per completion.
  }
}

void QueryService::SnapshotBaseline() {
  baseline_.Snapshot(windows_, config_.continuous.regression.min_samples);
}

std::vector<RegressionFinding> QueryService::DetectRegressions() const {
  return dfp::DetectRegressions(baseline_, windows_, config_.continuous.regression,
                                config_.continuous.regression_alert,
                                config_.parallel.shard_id);
}

void QueryService::ProcessRecompiles(bool final) {
  // The background compile worker is serial: jobs complete in FIFO order, each ready when the
  // lane's clock reaches its finish time. During Drain the swap waits for the service clock to
  // pass that point (the worker runs concurrently with query execution, off the service lanes);
  // at the final call every queued job completes — the worker outlives the request stream.
  while (!recompile_jobs_.empty()) {
    RecompileJob& job = recompile_jobs_.front();
    const CachedPlanPtr old_entry = job.source;
    if (old_entry->catalog_version != db_.catalog_version()) {
      recompile_jobs_.erase(recompile_jobs_.begin());  // Retired by a schema change.
      continue;
    }
    const bool reopt_job = job.candidate_plan != nullptr;
    // The source must still be the resident entry: a reopt swap or a promotion may have
    // replaced it while this job sat on the lane, and compiling from the replaced artifact
    // would clobber the newer code. A dead reopt job resolves its pending action as reverted —
    // the candidate never ran.
    if (cache_.Peek(old_entry->fingerprint) != old_entry) {
      if (reopt_job) {
        GuardedAction<ReoptPayload>* action = reopts_.Find(old_entry->fingerprint.structure);
        if (action != nullptr && action->state == GuardState::kDecided) {
          Transition(*action, GuardState::kReverted, ServiceNowCycles(), reopt_events_);
          action->payload.previous.reset();
        }
      }
      recompile_jobs_.erase(recompile_jobs_.begin());
      continue;
    }
    if (!final && job.ready_at_cycles > ServiceNowCycles()) {
      return;  // Still compiling; later jobs queue behind it.
    }
    const uint64_t swapped_at = final ? std::max(ServiceNowCycles(), job.ready_at_cycles)
                                      : ServiceNowCycles();

    // Tier promotions recompile the cached plan tree at the optimizing tier; reopt jobs compile
    // the rewritten candidate at the tier the entry already earned, so the guard's post-swap
    // comparison isolates the plan change from tier effects. Either way the compiled tree
    // carries the literals of its ORIGINAL compile (patches rewrite machine code, never the
    // tree), so after compiling we re-patch the fresh code to the bindings the old entry
    // currently serves — the swap must be invisible to result values.
    ProfilingSession compile_session(config_.profiling);
    CodegenOptions options;
    options.parallel = true;
    options.optimize_ir = reopt_job ? old_entry->tier == PlanTier::kOptimized : true;
    options.count_tuples = config_.reopt.enabled;
    PhysicalOpPtr plan =
        reopt_job ? std::move(job.candidate_plan) : ClonePlan(*old_entry->query.plan);
    PlanLiterals literals = ExtractLiterals(*plan);
    options.literals = &literals;
    auto entry = std::make_shared<CachedPlan>();
    entry->query = CompileQuery(db_, std::move(plan),
                                config_.profile_executions ? &compile_session : nullptr,
                                old_entry->name, options);
    entry->query.session = nullptr;
    entry->fingerprint = old_entry->fingerprint;
    entry->name = old_entry->name;
    entry->dictionary = compile_session.dictionary();
    entry->catalog_version = old_entry->catalog_version;
    entry->tier = reopt_job ? old_entry->tier : PlanTier::kOptimized;
    entry->literals = std::move(literals);
    entry->literal_permutation =
        reopt_job ? std::move(job.literal_permutation) : old_entry->literal_permutation;
    // The served bindings in the new code's slot order. A fresh reopt candidate extracts in
    // rewritten order, so the old entry's (submission-ordered) bindings route through the
    // permutation; a promotion recompiles the resident tree, whose extraction order — rewritten
    // or not — matches the old entry's slots one-to-one.
    PlanLiterals served;
    if (reopt_job && !entry->literal_permutation.empty()) {
      served.bindings.reserve(entry->literal_permutation.size());
      for (uint32_t slot : entry->literal_permutation) {
        DFP_CHECK(slot < old_entry->literals.bindings.size());
        served.bindings.push_back(old_entry->literals.bindings[slot]);
      }
    } else {
      served.bindings = old_entry->literals.bindings;
    }
    PatchCachedPlan(db_, *entry, served, old_entry->fingerprint.literals);
    entry->code_bytes = CompiledCodeBytes(entry->query, db_.code_map());
    entry->compile_cycles = job.compile_cycles;

    // Atomic swap between steps: Insert replaces the same-key entry. Sessions still holding the
    // old shared_ptr drain on the old code (its segments stay registered in the code map).
    cache_.Insert(entry);
    if (reopt_job) {
      GuardedAction<ReoptPayload>* action = reopts_.Find(entry->fingerprint.structure);
      DFP_CHECK(action != nullptr && action->state == GuardState::kDecided);
      // The guard's yardstick: everything in the windows up to the swap. JudgeRegression rolls
      // up strictly after this watermark, so only candidate executions are measured against it.
      action->baseline = SnapshotPlanBaseline(windows_, action->fingerprint,
                                              config_.reopt.guard.min_samples);
      Transition(*action, GuardState::kApplied, swapped_at, reopt_events_);
    } else {
      cache_.NoteTierSwap();
      controller_.MarkSwapped(entry->fingerprint.structure, swapped_at);
      tier_events_.push_back({swapped_at, "tier " + Hex16(entry->fingerprint.structure) +
                                              " baseline optimized swapped"});
    }
    recompile_jobs_.erase(recompile_jobs_.begin());
  }
}

void QueryService::Drain() {
  if (recorder_ != nullptr) {
    recorder_->OnDrain(static_cast<uint32_t>(tickets_.size()));
  }
  while (!queue_.empty() || !active_.empty()) {
    while (active_.size() < config_.max_active_sessions && !queue_.empty()) {
      if (!Admit(queue_.front())) {
        break;  // Deferred (patch quiescence): retry after the blocking sessions step.
      }
      queue_.pop_front();
    }
    // Weighted fair time-sharing of the pool: per round, a session of weight w takes w unit
    // steps, spread across the round at virtual times k/w (stable-sorted, so equal-weight
    // sessions keep admission order). At all-default weights this is exactly one step per
    // session per round — the historical round-robin schedule, cycle for cycle.
    struct Turn {
      size_t index;
      double vtime;
    };
    std::vector<Turn> turns;
    for (size_t i = 0; i < active_.size(); ++i) {
      const uint32_t weight = TicketRef(active_[i]->ticket).weight;
      for (uint32_t k = 1; k <= weight; ++k) {
        turns.push_back({i, static_cast<double>(k) / weight});
      }
    }
    std::stable_sort(turns.begin(), turns.end(),
                     [](const Turn& a, const Turn& b) { return a.vtime < b.vtime; });
    std::vector<bool> finished(active_.size(), false);
    for (const Turn& turn : turns) {
      if (!finished[turn.index]) {
        finished[turn.index] = StepSession(*active_[turn.index]);
      }
    }
    // Completed sessions release their slot before the next admission sweep.
    for (size_t i = active_.size(); i-- > 0;) {
      if (finished[i]) {
        free_slots_.push_back(active_[i]->slot);
        active_.erase(active_.begin() + i);
      }
    }
    std::sort(free_slots_.begin(), free_slots_.end());
    ProcessRecompiles(/*final=*/false);
  }
  ProcessRecompiles(/*final=*/true);
}

uint64_t QueryService::ServiceNowCycles() const {
  uint64_t max_lane = 0;
  for (uint64_t lane : lane_cycles_) {
    max_lane = std::max(max_lane, lane);
  }
  return max_lane;
}

}  // namespace dfp
