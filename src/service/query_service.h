// QueryService: a serving layer over the compiling engine — plan cache, concurrent session
// scheduler, and fleet profile aggregation.
//
// The paper's production framing (always-on profiling, decoupled post-processing) implies a
// long-lived serving process, not a one-query benchmark harness. This subsystem models that
// process deterministically:
//
//  - Submissions are fingerprinted and admitted through a bounded queue; at most
//    `max_active_sessions` queries are in flight.
//  - Compilation goes through the PlanCache: a hit reuses the cached artifact (zero new
//    code-segment bytes, bit-identical results, and — because every execution's session
//    resolves against the one Tagging Dictionary the cached compile built — identically
//    attributed profiles).
//  - Active sessions time-share one worker pool under weighted fair queuing: each scheduler
//    round hands every active session `weight` work units (a morsel, host step, or sequential
//    pipeline), interleaved by virtual finish time so a heavy session cannot starve a light
//    one. At the default weight of 1 this degenerates to exactly the historical round-robin.
//    Each unit comes from the session's own ParallelRun, so morsels drain through the same
//    NUMA-aware work-stealing deques as standalone runs (DESIGN.md §2c) — the service inherits
//    locality scheduling and its per-worker NumaStats without any code of its own.
//  - With tiering enabled (src/tiering/), the plan cache keys on (structure, pinned) so one
//    entry serves a whole literal family: warm hits re-bind the cached code by patching
//    immediates in place. Cold compiles run at the cheap baseline tier; the TierController
//    watches the window rollups and promotes hot fingerprints by recompiling at the optimizing
//    tier on a dedicated background lane, atomically swapping the cache entry between scheduler
//    rounds while in-flight sessions drain on the old code.
//  - Every session executes on its own virtual workers against private scratch regions placed
//    cache-congruent to the engine's shared regions (see kCacheCongruenceBytes), so a session's
//    sample stream is byte-identical to running the same query alone at the same worker count:
//    concurrent load never distorts a profile. Samples carry `session_id` for demultiplexing.
//  - Completed executions fold into the ServiceProfile, keyed by structural fingerprint.
//
// Service time is modeled as per-lane busy cycles (lane = pool worker): each unit's cycles are
// charged to the lane it ran on, compilation to the least-loaded lane. Throughput is
// queries / max-lane-cycles. Everything — admission, interleaving, clocks, samples — is a
// deterministic function of the submission sequence and the configuration.
#ifndef DFP_SRC_SERVICE_QUERY_SERVICE_H_
#define DFP_SRC_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/continuous/governor.h"
#include "src/continuous/guard.h"
#include "src/continuous/regression.h"
#include "src/continuous/window.h"
#include "src/critpath/report.h"
#include "src/critpath/slack.h"
#include "src/engine/database.h"
#include "src/engine/parallel.h"
#include "src/engine/result.h"
#include "src/profiling/session.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/service/fingerprint.h"
#include "src/service/placement_repair.h"
#include "src/service/plan_cache.h"
#include "src/service/service_profile.h"
#include "src/tiering/controller.h"
#include "src/tiering/literals.h"
#include "src/tiering/tier.h"

namespace dfp {

class TraceRecorder;  // src/replay/recorder.h — capture half of fleet record/replay.

// Private session regions are placed congruent to the engine's shared regions modulo this
// stride: 512 KiB is one L3 way span (8 MiB / 16 ways) and a multiple of the L1 (4 KiB) and L2
// (64 KiB) way spans, so an address and its session-region twin map to the same set in every
// cache level. That makes a session's cache behavior — and therefore its sample stream —
// identical to a standalone run's.
inline constexpr uint64_t kCacheCongruenceBytes = 512ull * 1024;

// Depth of the bounded submission queue behind the active sessions; a submission past it is
// rejected.
inline constexpr size_t kQueueDepth = 16;

// Configuration of the continuous-profiling layer the service runs on top of the fleet profile.
// Windows are passive (they only aggregate what the always-on profiling already collects) and
// default on; the governor actively retunes sampling periods between executions — which changes
// sample streams — and therefore defaults off (see src/continuous/governor.h).
struct ContinuousConfig {
  bool windows_enabled = true;
  WindowConfig window;
  GovernorConfig governor;
  RegressionThresholds regression;
  // Pushed one finding at a time as DetectRegressions() flags it; null = no push alerting,
  // findings are pull-only.
  RegressionAlertFn regression_alert;
};

// The profile-feedback scheduling loop: expected slack and classifier verdicts act back on
// the scheduler. Everything defaults OFF — acting on profiles changes schedules between
// executions, which would silently break workflows relying on byte-identical reruns
// (warm == cold), exactly the precedent the sampling governor set. Serving layers opt in.
struct SchedFeedbackConfig {
  // Order per-worker deques and pick steal victims by the SlackStore's expected slack:
  // zero-slack (critical-path) morsels run first, high-slack work is deferred to thieves.
  bool slack_scheduling = false;
  // Re-partition the column extents of a remote-DRAM-bound scan toward its consumers, guarded
  // by the regression detector (keep on clean, revert on regressed).
  bool placement_repair = false;
  // Reject at submission any deadline below the fingerprint's expected critical-path length —
  // infeasible even on an idle machine, so queueing it only wastes pool time.
  bool deadline_admission = false;
  // Fault injection for tests/benches: rotate every repair placement one node over, so the
  // "repair" provably regresses and the guard must revert it.
  bool repair_pessimize = false;
};

struct ServiceConfig {
  // Execution pool shared (time-sliced) by all active sessions.
  ParallelConfig parallel;
  // In-flight sessions (the queue behind them holds kQueueDepth submissions).
  uint32_t max_active_sessions = 2;
  // Per-session private scratch region sizes. Must be multiples of kCacheCongruenceBytes so the
  // regions of consecutive slots stay mutually congruent; the Database's `extra_bytes` must
  // cover max_active_sessions * (sum + up to 3 * kCacheCongruenceBytes padding).
  uint64_t session_hashtables_bytes = 48ull << 20;
  uint64_t session_state_bytes = 512ull * 1024;
  uint64_t session_output_bytes = 24ull << 20;
  // Profiling of served queries (the always-on facility): every execution is sampled.
  ProfilingConfig profiling;
  // Continuous-profiling subsystem (src/continuous): windowed fleet profiles, the adaptive
  // sampling governor, and the regression thresholds DetectRegressions() diffs with.
  ContinuousConfig continuous;
  // Profile-guided tiered compilation (src/tiering): literal-parameterized plan reuse plus the
  // baseline-first compile ladder with background promotion. Off by default — the cache then
  // behaves exactly as before (exact-literal keying, optimizing-tier compiles only).
  TieringConfig tiering;
  // Profile-feedback scheduling (slack-directed deques, guarded placement repair, slack-aware
  // admission). Off by default — see SchedFeedbackConfig.
  SchedFeedbackConfig sched;
  // Closed-loop profile-guided re-optimization (src/reopt): measured cardinalities re-drive
  // physical planning, guarded by the regression detector. Off by default; requires tiering
  // (candidates install through the parameterized cache's atomic swap).
  ReoptConfig reopt;
  // When non-empty: continuous-profiling state (fleet profile, window rings, regression
  // baselines, service clock) is loaded from this file at construction and saved back on
  // destruction (or SaveState()), so a restarted service resumes its windows and regression
  // detection where the previous process left off.
  std::string state_path;
};

// Head room a DatabaseConfig needs in `extra_bytes` to host `config`'s session slots.
uint64_t ServiceArenaBytes(const ServiceConfig& config);

// Throws dfp::Error when `config` cannot run: no session slot, a zero-byte session region,
// re-optimization without tiering, a zero sampling period or window width, a governor budget
// that is not positive, a double knob that is negative or not finite, or a worker count
// outside 1..64. The
// QueryService constructor and ReadTrace both call it, so a bad config or trace `knobs` line
// fails as an error, never as an abort.
void CheckServiceConfig(const ServiceConfig& config);

using TicketId = uint32_t;

enum class TicketStatus : uint8_t {
  kQueued,    // Waiting for an execution slot.
  kRunning,   // Admitted; morsels in flight.
  kDone,      // Finished; `result` and profile are valid.
  kRejected,  // Bounced at submission: queue full, or deadline infeasible (see the ticket's
              // `infeasible_deadline` flag for which).
  kTimedOut,  // Aborted mid-run: deadline exceeded.
};

// One submitted query, from enqueue to completion.
struct QueryTicket {
  TicketId id = 0;
  std::string name;
  TicketStatus status = TicketStatus::kQueued;
  PlanFingerprint fingerprint;
  bool cache_hit = false;
  uint32_t weight = 1;           // Weighted-fair-queuing share (units per scheduler round).
  PlanTier tier = PlanTier::kOptimized;  // Tier of the code this ticket executed.
  uint64_t patched_sites = 0;    // Immediates rewritten to serve this ticket (parameterized hit).
  uint64_t deadline_cycles = 0;   // 0 = none.
  // kRejected because the deadline is below the fingerprint's expected critical-path length
  // (slack-aware admission) — vs. the queue-full rejection, which leaves this false.
  bool infeasible_deadline = false;
  uint64_t compile_cycles = 0;    // Full compile on a miss, cache lookup cost on a hit.
  uint64_t execute_cycles = 0;    // The session's own simulated wall clock.
  uint64_t completed_at_cycles = 0;  // Service clock (max lane) when the ticket finished.
  // Continuous-profiling telemetry of this execution: the sampling period the PMU was armed
  // with (governor-chosen when enabled), the capture/flush cycles the PMU charged, and the
  // workers' summed busy cycles the overhead is measured against.
  uint64_t sampling_period = 0;
  SamplingOverhead sampling_overhead;
  uint64_t busy_cycles = 0;
  Result result;
  // This execution's profile (resolved), sharing the plan entry's Tagging Dictionary; null
  // until the ticket is done, and for rejected and timed-out tickets. The run's task DAG is
  // folded into criticality(), slack() and the repair loop at completion and not kept here.
  std::unique_ptr<const ProfilingSession> session;
  std::vector<WorkerMetrics> worker_metrics;

  // The compiled artifact the ticket executed (owned by the plan cache; kept alive here even
  // across eviction). Null until admission.
  std::shared_ptr<const CachedPlan> plan;

  // Plan awaiting admission; consumed on a cache miss, discarded on a hit.
  PhysicalOpPtr pending_plan;
};

class QueryService {
 public:
  // Carves the per-session scratch regions out of `db`'s extra arena head room; `db` must have
  // been configured with `extra_bytes >= ServiceArenaBytes(config)`. Throws dfp::Error when
  // CheckServiceConfig refuses `config` or the slots do not fit the head room.
  QueryService(Database& db, ServiceConfig config = ServiceConfig());
  ~QueryService();

  // Enqueues a query. Returns its ticket id immediately; status is kQueued, or kRejected when
  // the queue is full. `deadline_cycles` bounds the session's own run (0 = none).
  // `weight` is the session's weighted-fair-queuing share: a weight-w session receives w work
  // units per scheduler round (default 1 = the historical round-robin slice).
  TicketId Submit(PhysicalOpPtr plan, std::string name, uint64_t deadline_cycles = 0,
                  uint32_t weight = 1);

  // Runs the scheduler until every submitted query has completed (or timed out). A query that
  // overflows one of its session's scratch regions throws dfp::Error out of Drain, naming the
  // region; that leaves sessions mid-run, so a service whose Drain threw must be discarded.
  void Drain();

  const QueryTicket& ticket(TicketId id) const;
  size_t ticket_count() const { return tickets_.size(); }

  const PlanCache& plan_cache() const { return cache_; }
  ServiceProfile& fleet_profile() { return fleet_; }
  const ServiceProfile& fleet_profile() const { return fleet_; }

  // Continuous-profiling views: the windowed fleet profile (empty when windows are disabled)
  // and the adaptive sampling governor's per-plan state.
  const WindowedProfile& windows() const { return windows_; }
  const SamplingGovernor& governor() const { return governor_; }

  // Critical-path view (src/critpath/): per-fingerprint DAG rollups, criticality shares, and
  // bottleneck verdicts of everything served so far. Render with RenderCriticalPath().
  const CriticalityTracker& criticality() const { return critpath_; }

  // Freezes the current window rollups as the regression baseline (fingerprints with fewer than
  // kRegressionMinSamples are skipped), and diffs the newest windows against it.
  void SnapshotBaseline();
  const BaselineStore& baseline() const { return baseline_; }
  std::vector<RegressionFinding> DetectRegressions() const;

  // Tiering views: the promotion controller (break-even decisions and the transition log,
  // the one record of every promotion; render with RenderTierTimeline) and the count of
  // background recompilations still in flight.
  const TierController& tier_controller() const { return controller_; }
  size_t pending_recompiles() const { return recompile_jobs_.size(); }

  // Profile-feedback scheduling views: the per-fingerprint expected-slack store (fed from
  // every completed execution's DAG, persisted in service state), the placement-repair audit
  // log (the one record of every repair; render with RenderGuardTimeline), the pool-wide
  // slack-policy counters summed over all sessions, and the count of submissions rejected for
  // an infeasible deadline (each such ticket carries `infeasible_deadline`).
  const SlackStore& slack() const { return slack_; }
  const GuardLog<RepairPayload>& repairs() const { return repairs_; }
  const SchedStats& sched_stats() const { return sched_stats_; }
  uint64_t infeasible_rejections() const { return infeasible_rejections_; }

  // Re-optimization views (src/reopt/): the per-fingerprint measured-cardinality store
  // (render with RenderCardStore) and the re-plan audit log (the one record of every re-plan;
  // render with RenderGuardTimeline).
  const CardStore& cards() const { return cards_; }
  const GuardLog<ReoptPayload>& reopts() const { return reopts_; }

  // Coordinated cache invalidation (sharded service, src/shard/): drops every cached plan and
  // pending background recompilation now, exactly as the catalog-version check in Admit()
  // would on the next admission. Returns true when the catalog version had moved since the
  // last admission (i.e. the call actually invalidated), false for a no-op.
  bool InvalidateCache();

  // Writes the continuous-profiling state (fleet profile, window rings, regression baselines,
  // service clock) to `config.state_path`; no-op when no path is configured. Also invoked by
  // the destructor, so a service with a state path persists on shutdown by default.
  void SaveState() const;

  // Attaches a workload-trace recorder (src/replay/): every subsequent Submit, completion, and
  // Drain boundary is captured. Must be called on a fresh service — before the first Submit and
  // with a zero service clock — so a replay from sequence start reproduces the recording
  // exactly; the recorder throws otherwise. The caller owns the recorder and must keep it
  // alive for the service's lifetime.
  void AttachRecorder(TraceRecorder& recorder);

  // Service clock: the busiest lane's cumulative cycles (lanes run concurrently, so this is the
  // simulated elapsed time of everything served so far).
  uint64_t ServiceNowCycles() const;
  const std::vector<uint64_t>& lane_cycles() const { return lane_cycles_; }

 private:
  struct ActiveSession;

  // One decision awaiting its background recompilation — a tier promotion, or (with
  // `candidate_plan` set) a re-optimization candidate. The dedicated recompile lane finishes
  // the compile at `ready_at_cycles` of the service clock.
  struct RecompileJob {
    CachedPlanPtr source;           // The entry being replaced.
    uint64_t ready_at_cycles = 0;   // Background lane completion time.
    uint64_t compile_cycles = 0;    // Compile estimate charged to the background lane.
    // Re-optimization candidate (src/reopt): the rewritten plan to compile at `source`'s tier
    // and its literal-order mapping (see CachedPlan::literal_permutation). Null for a tier
    // promotion.
    PhysicalOpPtr candidate_plan;
    std::vector<uint32_t> literal_permutation;
  };

  QueryTicket& TicketRef(TicketId id) { return *tickets_[id - 1]; }
  // Admits `id` into a free slot. Returns false (leaving the ticket queued) when admission must
  // wait: the ticket needs the cached entry re-bound to new literals, but an in-flight session
  // is still executing that entry's code — it drains first.
  bool Admit(TicketId id);
  // Advances `session` by one unit; returns true when the ticket completed (done or timed out).
  bool StepSession(ActiveSession& session);
  // Guarded placement-repair loop, stepped at every completion with that run's DAG and
  // verdicts: triggers a re-partition on a remote-DRAM-bound verdict, and resolves an applied
  // one (keep/revert) once the regression guard has evidence.
  void StepPlacementRepair(const QueryTicket& ticket, const TaskDag& dag,
                           const std::vector<PipelineVerdict>& verdicts);
  // Guarded re-optimization loop, stepped at every completion: triggers a re-plan when the
  // fingerprint's measured cardinalities diverged past the threshold, and resolves an applied
  // swap (keep/revert) once the regression guard has evidence.
  void StepReopt(QueryTicket& ticket, const CachedPlanPtr& entry);
  // The resolve step both loops share: once an applied action's post-apply windows hold
  // enough evidence, keeps it on a clean verdict or calls `revert(payload)` on a regressed one.
  // Returns true when the action resolved.
  template <typename Payload, typename Revert>
  bool ResolveGuarded(GuardedAction<Payload>& action, Revert revert);
  void ChargeSerialWork(uint64_t cycles);  // Compile/lookup work: to the least-loaded lane.
  // True while some active session executes `entry`'s code.
  bool EntryBusy(const CachedPlanPtr& entry) const;
  // Swaps in finished background recompilations. With `final` set (queue drained), pending
  // jobs complete at their background-lane finish time even though the service clock stopped.
  void ProcessRecompiles(bool final);
  void LoadState();

  Database& db_;
  ServiceConfig config_;
  PlanCache cache_;
  ServiceProfile fleet_;
  WindowedProfile windows_;
  SamplingGovernor governor_;
  BaselineStore baseline_;
  TierController controller_;
  CriticalityTracker critpath_;
  SlackStore slack_;
  // Each guarded action carries its own pre-apply baseline, so neither loop touches the
  // user-facing baseline_ (SnapshotBaseline/DetectRegressions) or another action's yardstick.
  GuardLog<RepairPayload> repairs_;
  CardStore cards_;
  GuardLog<ReoptPayload> reopts_;
  SchedStats sched_stats_;
  uint64_t infeasible_rejections_ = 0;
  uint64_t seen_catalog_version_;

  std::vector<std::unique_ptr<QueryTicket>> tickets_;
  std::deque<TicketId> queue_;
  std::vector<std::unique_ptr<ActiveSession>> active_;  // Admission order.
  std::vector<ScratchRegions> slots_;
  std::vector<size_t> free_slots_;  // Kept sorted; lowest slot is reused first.
  std::vector<uint64_t> lane_cycles_;
  std::vector<RecompileJob> recompile_jobs_;  // FIFO; background lane is serial.
  uint64_t recompile_lane_busy_cycles_ = 0;   // Background lane's busy-until mark.
  TraceRecorder* recorder_ = nullptr;  // Not owned; null when not recording.
};

}  // namespace dfp

#endif  // DFP_SRC_SERVICE_QUERY_SERVICE_H_
