// Query service experiment: throughput of a warm compiled-plan cache against cold compilation,
// plus the fleet-level profile the service aggregates while serving — and the continuous
// profiling layer on top of it:
//
//  - A repeating workload of TPC-H-style queries is pushed through the QueryService twice: the
//    first pass compiles every distinct plan (cold), the second hits the cache for all of them
//    (warm). In a compiling engine serving short queries, compilation dominates end-to-end
//    cost, so the warm pass sustains a multiple of the cold pass's throughput.
//  - The adaptive sampling governor runs with a 2% overhead budget; after a few convergence
//    passes the final pass's measured sampling cost (capture + flush cycles the PMU actually
//    charged) must land within half a point of the budget, and the windowed operator rankings
//    must agree with the cumulative fleet profile on this steady workload.
//  - A regression scenario: baseline snapshot, one identical pass (must flag nothing — zero
//    false positives), then a q6 variant with much wider literals sharing the structural
//    fingerprint (must flag the shift).
//  - Fleet record/replay: a mixed workload is recorded into a text trace, replayed twice on
//    fresh services (zero diff both times, byte-identical JSON reports — the CI determinism
//    gate), then replayed as what-ifs: 10x session load must degrade through admission
//    rejections, and an edited scheduler must shift timing without touching results.
//  - Sharded multi-node service (src/shard/): fan-out queries over a 4-shard range-partitioned
//    catalog must return results identical to the unsharded engine, the coordinator's Merge
//    operator and CROSS_NODE traffic must show up in the hierarchical fleet aggregate (whose
//    JSON renders byte-identically across runs — the CI determinism gate), a 1-shard tower
//    must be byte-identical to a plain QueryService, a catalog-version bump must invalidate
//    every shard's plan cache in one step, and a shard_count=4 what-if replay of the recorded
//    trace must complete with zero result divergence.
//  - Closed-loop re-optimization (src/reopt/): a join spine with a 40x cardinality misestimate
//    is served repeatedly with the feedback loop on; measured cardinalities must trigger
//    exactly one re-plan (divergence >= 400%), the guard must keep the reordered plan and its
//    measured execute cycles must beat a reopt-off control on identical results, an injected
//    pessimizing rewrite must be reverted, and a double run must emit byte-identical reopt
//    JSON (the CI determinism gate).
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench/common.h"
#include "src/critpath/report.h"
#include "src/engine/result.h"
#include "src/plan/builder.h"
#include "src/profiling/reports.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/replay/trace.h"
#include "src/service/placement_repair.h"
#include "src/service/query_service.h"
#include "src/shard/coordinator.h"
#include "src/sql/binder.h"
#include "src/tiering/report.h"
#include "src/vcpu/vmem.h"

namespace dfp {
namespace {

// q6 with much wider literals: same plan structure (and fingerprint), drastically different
// selectivity — the injected plan-mix shift.
constexpr const char* kShiftedQ6 =
    "select sum(l_extendedprice * l_discount) as revenue "
    "from lineitem "
    "where l_shipdate >= date '1992-01-01' and l_shipdate < date '1999-01-01' "
    "and l_discount between 0.00 and 0.10 and l_quantity < 100";

// q6 with parameterized literals: every variant shares the structural fingerprint, so under
// tiering they all bind to one cached artifact via immediate patching.
std::string Q6Variant(double lo, double hi, int quantity) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "select sum(l_extendedprice * l_discount) as revenue from lineitem "
                "where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
                "and l_discount between %.2f and %.2f and l_quantity < %d",
                lo, hi, quantity);
  return buffer;
}

// Top operator label of one execution's resolved profile ("" when unprofiled/idle).
std::string TopOperatorLabel(const QueryTicket& ticket) {
  if (ticket.session == nullptr || ticket.plan == nullptr) {
    return "";
  }
  const OperatorProfile profile = BuildOperatorProfile(*ticket.session, ticket.plan->query);
  const OperatorCost* top = nullptr;
  for (const OperatorCost& cost : profile.operators) {
    if (top == nullptr || cost.samples > top->samples) {
      top = &cost;
    }
  }
  return top != nullptr ? top->label : "";
}

int Main() {
  PrintHeader("Query service: plan cache and fleet profiling",
              "Section 5.2 production framing, extended to a serving process");

  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.profiling.period = 5000;
  config.continuous.governor.enabled = true;
  config.continuous.governor.overhead_budget = 0.02;

  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  auto db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = BenchScale();
  TpchRowCounts counts = GenerateTpch(*db, options);
  std::printf("# TPC-H-style dataset: scale %.4g, %llu lineitem rows\n", options.scale,
              static_cast<unsigned long long>(counts.lineitem));

  QueryService service(*db, config);
  // Six distinct plans: the cold pass compiles each one, the warm pass hits on all of them.
  const std::vector<std::string> workload = {"q6", "q1", "q3", "q14", "q4", "q12"};

  auto run_pass = [&](const char* label) {
    const uint64_t before = service.ServiceNowCycles();
    for (const std::string& name : workload) {
      service.Submit(BuildQueryPlan(*db, FindQuery(name)), name);
    }
    service.Drain();
    const uint64_t cycles = service.ServiceNowCycles() - before;
    std::printf("%-6s %zu queries in %12llu cycles (%8.3f ms simulated, %.2f queries/ms)\n",
                label, workload.size(), static_cast<unsigned long long>(cycles),
                CyclesToMs(cycles),
                static_cast<double>(workload.size()) / CyclesToMs(cycles));
    return cycles;
  };

  std::printf("\n--- Throughput: %zu-query workload, %u workers, %u concurrent sessions ---\n",
              workload.size(), config.parallel.workers, config.max_active_sessions);
  const uint64_t cold_cycles = run_pass("cold");
  const uint64_t warm_cycles = run_pass("warm");
  const double speedup = static_cast<double>(cold_cycles) / static_cast<double>(warm_cycles);
  std::printf("warm/cold throughput: %.2fx\n", speedup);

  const PlanCacheStats& cache = service.plan_cache().stats();
  std::printf("\n--- Plan cache ---\n");
  std::printf("hits %llu  misses %llu  evictions %llu  resident %llu entries / %llu code bytes\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.resident_entries),
              static_cast<unsigned long long>(cache.resident_code_bytes));

  std::printf("\n%s\n", service.fleet_profile().Render().c_str());

  // --- Adaptive sampling governor: convergence and measured overhead ---
  std::printf("--- Sampling governor: %.1f%% budget, convergence passes ---\n",
              100.0 * config.continuous.governor.overhead_budget);
  for (int pass = 0; pass < 5; ++pass) {
    run_pass("tune");
  }
  // Final measured pass: aggregate share = total charged sampling cycles over total useful
  // (non-overhead) busy cycles of the pass's tickets.
  const TicketId final_first = static_cast<TicketId>(service.ticket_count() + 1);
  run_pass("final");
  uint64_t final_overhead = 0;
  uint64_t final_busy = 0;
  for (TicketId id = final_first; id <= service.ticket_count(); ++id) {
    final_overhead += service.ticket(id).sampling_overhead.total_cycles();
    final_busy += service.ticket(id).busy_cycles;
  }
  const double measured_share =
      final_busy > final_overhead
          ? static_cast<double>(final_overhead) /
                static_cast<double>(final_busy - final_overhead)
          : 0;
  const double budget = config.continuous.governor.overhead_budget;
  const bool governor_ok = std::abs(measured_share - budget) <= 0.005;
  std::printf("final pass: overhead %llu cycles over %llu useful -> %.3f%% (budget %.1f%%) %s\n",
              static_cast<unsigned long long>(final_overhead),
              static_cast<unsigned long long>(final_busy - final_overhead),
              100.0 * measured_share, 100.0 * budget, governor_ok ? "[ok]" : "[FAIL]");
  std::printf("\n%s\n", service.governor().Render().c_str());

  // Windowed vs. cumulative: on a steady workload both views must rank operators identically.
  bool rankings_agree = true;
  for (const auto& [fingerprint, plan] : service.fleet_profile().plans()) {
    OperatorId fleet_top = kNoOperator;
    uint64_t fleet_samples = 0;
    for (const auto& [op, cost] : plan.operators) {
      if (cost.samples > fleet_samples) {
        fleet_samples = cost.samples;
        fleet_top = op;
      }
    }
    WindowRollup rollup = service.windows().RollUp(fingerprint);
    OperatorId window_top = kNoOperator;
    uint64_t window_samples = 0;
    for (const auto& [op, stats] : rollup.operators) {
      if (stats.samples > window_samples) {
        window_samples = stats.samples;
        window_top = op;
      }
    }
    if (fleet_samples > 0 && window_samples > 0 && fleet_top != window_top) {
      rankings_agree = false;
      std::printf("ranking mismatch on %s: cumulative top op %llu vs windowed %llu\n",
                  plan.name.c_str(), static_cast<unsigned long long>(fleet_top),
                  static_cast<unsigned long long>(window_top));
    }
  }
  std::printf("cumulative vs windowed operator rankings: %s\n",
              rankings_agree ? "agree [ok]" : "[FAIL]");

  std::printf("\n%s\n", service.windows().Render().c_str());

  // --- Critical-path analysis: which pipeline gates each plan's latency, and why ---
  std::printf("--- Critical-path analysis ---\n");
  std::printf("%s\n", RenderCriticalPath(service.criticality()).c_str());
  uint64_t critpath_critical_cycles = 0;
  uint64_t critpath_wall_cycles = 0;
  uint64_t critpath_label_counts[kBottleneckLabels] = {};
  bool critpath_ok = !service.criticality().plans().empty();
  for (const auto& [fingerprint, plan] : service.criticality().plans()) {
    (void)fingerprint;
    critpath_critical_cycles += plan.critical_work_cycles;
    critpath_wall_cycles += plan.wall_cycles;
    for (int label = 0; label < kBottleneckLabels; ++label) {
      critpath_label_counts[label] += plan.label_counts[label];
    }
    // Every served plan must carry a critical path and a top pipeline that owns a nonzero
    // share of it — a zero here means the DAG reconstruction lost the schedule.
    critpath_ok = critpath_ok && plan.executions > 0 && plan.critical_work_cycles > 0 &&
                  plan.top_share_pct > 0;
  }
  std::printf("critical-path rollup: %zu plans, %llu critical cycles of %llu wall %s\n",
              service.criticality().plans().size(),
              static_cast<unsigned long long>(critpath_critical_cycles),
              static_cast<unsigned long long>(critpath_wall_cycles),
              critpath_ok ? "[ok]" : "[FAIL: plan without critical-path evidence]");

  // --- Regression detection: identical rerun must be quiet, injected shift must fire ---
  std::printf("--- Regression detection ---\n");
  service.SnapshotBaseline();
  run_pass("same");
  const auto rerun_findings = service.DetectRegressions();
  const size_t false_positives = rerun_findings.size();
  std::printf("identical rerun: %zu finding(s) %s\n", false_positives,
              false_positives == 0 ? "[ok]" : "[FAIL: false positive]");
  if (false_positives > 0) {
    std::printf("%s", RenderRegressionReport(rerun_findings).c_str());
  }

  const TicketId shift_probe = service.Submit(PlanSql(*db, FindQuery("q6").sql), "q6");
  service.Drain();
  const uint64_t q6_fingerprint = service.ticket(shift_probe).fingerprint.structure;
  // Refresh the baseline so the post-watermark aggregate holds only the shifted executions.
  service.SnapshotBaseline();
  for (int i = 0; i < 6; ++i) {
    service.Submit(PlanSql(*db, kShiftedQ6), "q6");
    service.Drain();
  }
  auto findings = service.DetectRegressions();
  bool shift_flagged = false;
  for (const auto& finding : findings) {
    shift_flagged |= finding.fingerprint == q6_fingerprint;
  }
  std::printf("injected q6 literal shift: %zu finding(s), q6 %s\n", findings.size(),
              shift_flagged ? "flagged [ok]" : "[FAIL: not flagged]");
  std::printf("\n%s\n", RenderRegressionReport(findings).c_str());

  // --- Tiered compilation: parameterized reuse, background promotion, tier timeline ---
  std::printf("--- Tiered compilation: parameterized reuse and background promotion ---\n");
  ServiceConfig tier_config;
  tier_config.parallel.workers = 4;
  tier_config.max_active_sessions = 2;
  tier_config.session_hashtables_bytes = 32ull << 20;
  tier_config.session_output_bytes = 16ull << 20;
  tier_config.profiling.period = 5000;
  tier_config.tiering.enabled = true;
  DatabaseConfig tier_db_config;
  tier_db_config.extra_bytes = ServiceArenaBytes(tier_config);

  // (a) Literal-variant warm hits, measured with the tier controller parked far from break-even
  // so a background swap cannot replace the resident code mid-measurement: the cold structure
  // miss compiles once (baseline tier), each variant then re-binds the same machine code by
  // patching immediates — zero new code bytes.
  const std::vector<double> variant_los = {0.04, 0.05, 0.06};
  uint64_t tier_cold_cost = 0;
  uint64_t tier_warm_avg = 0;
  uint64_t tier_code_resident = 0;
  uint64_t tier_code_after = 0;
  uint64_t tier_patched_hits = 0;
  bool tier_zero_new_code = false;
  {
    ServiceConfig patch_config = tier_config;
    patch_config.tiering.break_even_ratio = 1e9;
    auto patch_db = std::make_unique<Database>(tier_db_config);
    GenerateTpch(*patch_db, options);
    QueryService patched(*patch_db, patch_config);
    const TicketId cold_id =
        patched.Submit(PlanSql(*patch_db, Q6Variant(0.05, 0.07, 24)), "q6");
    patched.Drain();
    const QueryTicket& cold = patched.ticket(cold_id);
    tier_cold_cost = cold.compile_cycles + cold.execute_cycles;
    tier_code_resident = patched.plan_cache().stats().resident_code_bytes;
    uint64_t warm_cost = 0;
    for (double lo : variant_los) {
      const TicketId id =
          patched.Submit(PlanSql(*patch_db, Q6Variant(lo, lo + 0.02, 25)), "q6");
      patched.Drain();
      const QueryTicket& warm = patched.ticket(id);
      warm_cost += warm.compile_cycles + warm.execute_cycles;
    }
    tier_warm_avg = warm_cost / variant_los.size();
    tier_code_after = patched.plan_cache().stats().resident_code_bytes;
    tier_patched_hits = patched.plan_cache().stats().patched_hits;
    tier_zero_new_code =
        tier_code_after == tier_code_resident && tier_patched_hits >= variant_los.size();
  }

  // Control: the same variants against the exact-keyed cache (tiering off) — every literal
  // variant is a structure hit but a cache miss, so it pays a full optimizing-tier compile.
  // That is the cost the patched warm hit must beat, and the ratio is scale-invariant (both
  // sides carry the same execute cycles).
  uint64_t tier_control_avg = 0;
  {
    ServiceConfig control_config = tier_config;
    control_config.tiering.enabled = false;
    auto control_db = std::make_unique<Database>(tier_db_config);
    GenerateTpch(*control_db, options);
    QueryService control(*control_db, control_config);
    control.Submit(PlanSql(*control_db, Q6Variant(0.05, 0.07, 24)), "q6");
    control.Drain();
    uint64_t control_cost = 0;
    for (double lo : variant_los) {
      const TicketId id =
          control.Submit(PlanSql(*control_db, Q6Variant(lo, lo + 0.02, 25)), "q6");
      control.Drain();
      const QueryTicket& miss = control.ticket(id);
      control_cost += miss.compile_cycles + miss.execute_cycles;
    }
    tier_control_avg = control_cost / variant_los.size();
  }
  const double tier_warm_speedup =
      static_cast<double>(tier_control_avg) / static_cast<double>(tier_warm_avg);
  std::printf("cold structure miss (baseline tier): %llu cycles; exact-keyed variant "
              "recompile: %llu cycles avg\n",
              static_cast<unsigned long long>(tier_cold_cost),
              static_cast<unsigned long long>(tier_control_avg));
  std::printf("patched warm hit: %llu cycles avg — %.1fx vs variant recompile %s\n",
              static_cast<unsigned long long>(tier_warm_avg), tier_warm_speedup,
              tier_warm_speedup >= 2.0 ? "[ok]" : "[FAIL]");
  std::printf("code bytes across %zu literal variants: %llu -> %llu, %llu patched hits %s\n",
              variant_los.size(), static_cast<unsigned long long>(tier_code_resident),
              static_cast<unsigned long long>(tier_code_after),
              static_cast<unsigned long long>(tier_patched_hits),
              tier_zero_new_code ? "[ok]" : "[FAIL: new code compiled]");

  // (b) A fresh tiered service with the default break-even: keep executing the hot fingerprint
  // until the controller fires and the background recompilation swaps in the optimizing-tier
  // entry.
  auto tier_db = std::make_unique<Database>(tier_db_config);
  GenerateTpch(*tier_db, options);
  QueryService tiered(*tier_db, tier_config);
  const TicketId pre_swap_id =
      tiered.Submit(PlanSql(*tier_db, Q6Variant(0.05, 0.07, 24)), "q6");
  tiered.Drain();
  const Result pre_swap_result = tiered.ticket(pre_swap_id).result;
  const std::string pre_swap_top = TopOperatorLabel(tiered.ticket(pre_swap_id));

  size_t tier_promotion_runs = 0;
  for (int i = 0; i < 64 && tiered.plan_cache().stats().tier_swaps == 0; ++i) {
    tiered.Submit(PlanSql(*tier_db, Q6Variant(0.05, 0.07, 24)), "q6");
    tiered.Drain();
    ++tier_promotion_runs;
  }
  const bool tier_promoted = tiered.plan_cache().stats().tier_swaps >= 1 &&
                             tiered.pending_recompiles() == 0;
  std::printf("background promotion after %zu hot executions: %llu swap(s) %s\n",
              tier_promotion_runs,
              static_cast<unsigned long long>(tiered.plan_cache().stats().tier_swaps),
              tier_promoted ? "[ok]" : "[FAIL: never promoted]");

  // Post-swap execution with the pre-swap literals: results must be bit-identical and the
  // profile must attribute to the same operators (parity across the tier swap).
  const TicketId post_swap_id =
      tiered.Submit(PlanSql(*tier_db, Q6Variant(0.05, 0.07, 24)), "q6");
  tiered.Drain();
  const QueryTicket& post_swap = tiered.ticket(post_swap_id);
  const bool post_swap_optimized = post_swap.tier == PlanTier::kOptimized;
  const bool tier_results_identical = post_swap.result.rows() == pre_swap_result.rows();
  const std::string post_swap_top = TopOperatorLabel(post_swap);
  const bool tier_attribution_parity = !pre_swap_top.empty() && pre_swap_top == post_swap_top;
  std::printf("post-swap run: tier %s, results %s, top operator %s vs %s %s\n",
              TierName(post_swap.tier),
              tier_results_identical ? "bit-identical [ok]" : "[FAIL: drifted]",
              pre_swap_top.c_str(), post_swap_top.c_str(),
              tier_attribution_parity ? "[ok]" : "[FAIL: attribution drifted]");

  // (c) Tier timeline: every window-attributed sample must belong to a tier.
  const TierTimelineTotals timeline =
      SummarizeTierTimeline(tiered.windows(), tiered.tier_controller());
  const bool tier_timeline_complete =
      timeline.samples > 0 &&
      timeline.samples == timeline.baseline_samples + timeline.optimized_samples &&
      timeline.transitions >= 1 && timeline.swapped >= 1;
  std::printf("tier timeline: %llu samples = %llu baseline + %llu optimized, "
              "%llu promotion(s) (%llu swapped) %s\n",
              static_cast<unsigned long long>(timeline.samples),
              static_cast<unsigned long long>(timeline.baseline_samples),
              static_cast<unsigned long long>(timeline.optimized_samples),
              static_cast<unsigned long long>(timeline.transitions),
              static_cast<unsigned long long>(timeline.swapped),
              tier_timeline_complete ? "[ok]" : "[FAIL]");
  std::printf("\n%s\n", RenderTierTimeline(tiered.windows(), tiered.tier_controller()).c_str());

  const bool tiering_ok = tier_warm_speedup >= 2.0 && tier_zero_new_code && tier_promoted &&
                          post_swap_optimized && tier_results_identical &&
                          tier_attribution_parity && tier_timeline_complete;

  // --- Fleet record/replay: zero-diff determinism gate and what-if scaling ---
  std::printf("\n--- Fleet record/replay: zero-diff gate and what-if scaling ---\n");
  ServiceConfig replay_config = tier_config;
  replay_config.profiling.period = 311;
  WorkloadTrace recorded_trace;
  {
    // Record a mixed workload (cold compiles, warm hits, a patched q6 literal family, a
    // background tier promotion) through an attached TraceRecorder. Scoped so the recording
    // database's arena is released before the replay databases are carved.
    DatabaseConfig record_db_config;
    record_db_config.extra_bytes = ServiceArenaBytes(replay_config);
    auto record_db = std::make_unique<Database>(record_db_config);
    GenerateTpch(*record_db, options);
    QueryService recorded(*record_db, replay_config);
    TraceRecorder recorder;
    recorded.AttachRecorder(recorder);
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q1")), "q1");
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q3")), "q3");
    recorded.Drain();
    recorded.Submit(BuildQueryPlan(*record_db, FindQuery("q1")), "q1");
    for (double lo : {0.02, 0.03, 0.04, 0.05}) {
      recorded.Submit(PlanSql(*record_db, Q6Variant(lo, lo + 0.02, 24)), "q6");
    }
    recorded.Drain();
    for (double lo : {0.02, 0.03, 0.04}) {
      recorded.Submit(PlanSql(*record_db, Q6Variant(lo, lo + 0.02, 24)), "q6");
    }
    recorded.Drain();
    recorder.Finish(recorded);
    recorded_trace = recorder.trace();
  }
  // Replay what a persisted trace file round-trips to, not the in-memory object.
  const std::string trace_text = EncodeTraceText(recorded_trace);
  std::istringstream trace_in(trace_text);
  const WorkloadTrace trace = ReadTrace(trace_in);
  std::printf("recorded %llu queries (%llu completed), trace text %zu bytes\n",
              static_cast<unsigned long long>(trace.summary.queries),
              static_cast<unsigned long long>(trace.summary.completed), trace_text.size());

  // Each replay runs against its own identically generated database: the service compiles
  // code and carves session regions out of its database, so reusing one would shift every
  // address (and therefore every sample stream).
  auto run_replay = [&](const ReplayOptions& replay_options) {
    DatabaseConfig replay_db_config;
    replay_db_config.extra_bytes = ServiceArenaBytes(replay_options.config.value_or(trace.knobs));
    auto replay_db = std::make_unique<Database>(replay_db_config);
    GenerateTpch(*replay_db, options);
    const ReplayRun run = ReplayTrace(*replay_db, trace, replay_options);
    ReplayReport report = DiffTraces(trace, run.trace);
    report.session_multiplier = replay_options.session_multiplier;
    return report;
  };

  // (a) Determinism gate: two identity replays must both be zero-diff, and their JSON reports
  // must be byte-identical (the CI determinism job diffs these two files).
  const ReplayReport replay1 = run_replay({});
  const ReplayReport replay2 = run_replay({});
  std::ostringstream replay_json1;
  std::ostringstream replay_json2;
  WriteReplayReportJson(replay1, replay_json1);
  WriteReplayReportJson(replay2, replay_json2);
  const bool replay_reports_match = replay_json1.str() == replay_json2.str();
  std::printf("identity replay: %s; repeated replay report %s\n",
              replay1.identical ? "zero diff [ok]" : "[FAIL: diverged]",
              replay_reports_match ? "byte-identical [ok]" : "[FAIL: non-deterministic]");
  if (!replay1.identical) {
    std::printf("%s", RenderReplayReport(replay1).c_str());
  }

  // (b) What breaks at 10x sessions? Every recorded query submitted ten times back to back:
  // the bounded admission queue must shed the surplus (rejections, not crashes or timeouts),
  // and everything admitted must still finish.
  ReplayOptions tenx;
  tenx.session_multiplier = 10;
  const ReplayReport replay_10x = run_replay(tenx);
  const bool replay_10x_ok =
      replay_10x.replayed_queries == 10 * replay_10x.recorded_queries &&
      replay_10x.replayed_rejected > replay_10x.recorded_rejected &&
      replay_10x.replayed_completed + replay_10x.replayed_rejected +
              replay_10x.replayed_timed_out ==
          replay_10x.replayed_queries;
  std::printf("what-if 10x sessions: %llu queries -> %llu completed, %llu rejected, "
              "%llu timed out %s\n",
              static_cast<unsigned long long>(replay_10x.replayed_queries),
              static_cast<unsigned long long>(replay_10x.replayed_completed),
              static_cast<unsigned long long>(replay_10x.replayed_rejected),
              static_cast<unsigned long long>(replay_10x.replayed_timed_out),
              replay_10x_ok ? "[ok]" : "[FAIL: load not shed through admission control]");

  // (c) Scheduler A/B on recorded traffic: a central run queue changes timing, never results.
  ReplayOptions central;
  central.config = trace.knobs;
  central.config->parallel.scheduler = SchedulerPolicy::kCentral;
  const ReplayReport replay_sched = run_replay(central);
  const bool replay_sched_ok = replay_sched.results_diverged == 0 &&
                               replay_sched.replayed_completed == replay_sched.recorded_completed;
  std::printf("what-if central scheduler: cycles %llu -> %llu, results %s\n",
              static_cast<unsigned long long>(replay_sched.recorded_cycles),
              static_cast<unsigned long long>(replay_sched.replayed_cycles),
              replay_sched_ok ? "identical [ok]" : "[FAIL: results diverged]");

  // (d) Slack scheduling flipped on over the recorded traffic: the store learns across the
  // trace's repeated q6 variants and reorders their later scans — timing may move, results
  // must not.
  ReplayOptions slack_what_if;
  slack_what_if.config = trace.knobs;
  slack_what_if.config->sched.slack_scheduling = true;
  const ReplayReport replay_slack = run_replay(slack_what_if);
  const bool replay_slack_ok = replay_slack.results_diverged == 0 &&
                               replay_slack.replayed_completed == replay_slack.recorded_completed;
  std::printf("what-if slack scheduling: cycles %llu -> %llu, results %s\n",
              static_cast<unsigned long long>(replay_slack.recorded_cycles),
              static_cast<unsigned long long>(replay_slack.replayed_cycles),
              replay_slack_ok ? "identical [ok]" : "[FAIL: results diverged]");

  const bool replay_ok = replay1.identical && replay_reports_match && replay_10x_ok &&
                         replay_sched_ok && replay_slack_ok;
  if (GlobalBenchOptions().json) {
    std::ofstream replay_out1("BENCH_replay1.json");
    replay_out1 << replay_json1.str();
    std::printf("# wrote BENCH_replay1.json\n");
    std::ofstream replay_out2("BENCH_replay2.json");
    replay_out2 << replay_json2.str();
    std::printf("# wrote BENCH_replay2.json\n");
  }

  // --- Slack-directed scheduling: the profile-feedback loop through the service ---
  //
  // Both sub-experiments run at a fixed scale: the placement-repair thresholds below were
  // calibrated against this dataset's deterministic stall/remote shares, and --smoke must not
  // silently move them off the classifier's trigger point.
  std::printf("\n--- Slack-directed scheduling: profile feedback through the service ---\n");
  TpchOptions sched_options;
  sched_options.scale = 0.01;

  // (a) Slack ordering + deadline admission. The store learns q6's DAG on the first run, the
  // later runs execute slack-ordered, and the learned expected critical path prices deadline
  // feasibility at submission.
  SchedStats sched_stats;
  uint64_t sched_infeasible = 0;
  uint64_t sched_expected_critical = 0;
  bool sched_slack_ok = false;
  bool sched_admission_ok = false;
  bool sched_results_identical = false;
  {
    ServiceConfig sched_config;
    sched_config.parallel.workers = 4;
    sched_config.max_active_sessions = 2;
    sched_config.session_hashtables_bytes = 32ull << 20;
    sched_config.session_output_bytes = 16ull << 20;
    sched_config.profiling.period = 311;
    sched_config.sched.slack_scheduling = true;
    sched_config.sched.deadline_admission = true;
    DatabaseConfig sched_db_config;
    sched_db_config.extra_bytes = ServiceArenaBytes(sched_config);
    auto sched_db = std::make_unique<Database>(sched_db_config);
    GenerateTpch(*sched_db, sched_options);
    QueryService sched(*sched_db, sched_config);
    TicketId first_id = 0;
    TicketId last_id = 0;
    for (int i = 0; i < 3; ++i) {
      last_id = sched.Submit(BuildQueryPlan(*sched_db, FindQuery("q6")), "q6");
      sched.Drain();
      if (i == 0) {
        first_id = last_id;
      }
    }
    const uint64_t q6_fp = sched.ticket(first_id).fingerprint.structure;
    sched_expected_critical = sched.slack().ExpectedCriticalPathCycles(q6_fp);
    // Infeasible on an idle machine: no schedule can beat the expected critical path.
    const TicketId bounced = sched.Submit(BuildQueryPlan(*sched_db, FindQuery("q6")), "q6",
                                          sched_expected_critical / 2);
    const TicketId admitted = sched.Submit(BuildQueryPlan(*sched_db, FindQuery("q6")), "q6",
                                           sched_expected_critical * 100);
    sched.Drain();
    sched_stats = sched.sched_stats();
    sched_infeasible = sched.infeasible_rejections();
    sched_slack_ok = sched_stats.slack_ordered_scans >= 2 && sched_stats.slack_hits > 0;
    sched_admission_ok = sched.ticket(bounced).status == TicketStatus::kRejected &&
                         sched.ticket(bounced).infeasible_deadline &&
                         sched.ticket(admitted).status == TicketStatus::kDone &&
                         sched_infeasible == 1;
    std::string sched_diff;
    sched_results_identical = Result::Equivalent(sched.ticket(first_id).result,
                                                 sched.ticket(last_id).result, true, &sched_diff);
    std::printf("slack ordering: %llu ordered scan(s), %llu hint hits, %llu deferred, "
                "%llu slack steals, results %s\n",
                static_cast<unsigned long long>(sched_stats.slack_ordered_scans),
                static_cast<unsigned long long>(sched_stats.slack_hits),
                static_cast<unsigned long long>(sched_stats.deferred_morsels),
                static_cast<unsigned long long>(sched_stats.slack_steals),
                sched_results_identical ? "identical [ok]" : "[FAIL: diverged]");
    std::printf("deadline admission: expected critical path %llu cycles, deadline/2 %s, "
                "%llu infeasible rejection(s) %s\n",
                static_cast<unsigned long long>(sched_expected_critical),
                sched.ticket(bounced).status == TicketStatus::kRejected ? "bounced" : "ADMITTED",
                static_cast<unsigned long long>(sched_infeasible),
                sched_admission_ok ? "[ok]" : "[FAIL]");
  }

  // (b) Guarded placement repair: three of q6's four lineitem columns are misplaced onto the
  // wrong half of the machine, the classifier's remote-DRAM-bound verdict triggers exactly one
  // consumer-directed re-partition, and the regression guard keeps it once the post-apply
  // windows show the remote share falling. Thresholds mirror the sched test suite's calibrated
  // values (see tests/service/sched_feedback_test.cc for the measurements).
  uint64_t sched_repairs_applied = 0;
  uint64_t sched_repairs_reverted = 0;
  bool sched_repair_ok = false;
  {
    ServiceConfig repair_config;
    repair_config.parallel.workers = 4;
    repair_config.max_active_sessions = 2;
    repair_config.session_hashtables_bytes = 32ull << 20;
    repair_config.session_output_bytes = 16ull << 20;
    repair_config.session_state_bytes = 512ull * 1024;
    repair_config.sched.placement_repair = true;
    repair_config.profiling.period = 10007;
    repair_config.continuous.window.width_cycles = 1'000'000;
    repair_config.continuous.regression.remote_share_drift = 0.015;
    DatabaseConfig repair_db_config;
    repair_db_config.extra_bytes = ServiceArenaBytes(repair_config);
    auto repair_db = std::make_unique<Database>(repair_db_config);
    GenerateTpch(*repair_db, sched_options);
    const Table& lineitem = repair_db->table("lineitem");
    const PartitionMap swapped = {{kPlacementDenom / 2, 1}, {kPlacementDenom, 0}};
    for (size_t c : {size_t{4}, size_t{6}, size_t{10}}) {
      repair_db->mem().SetExtentPlacement(lineitem.column_base(c), swapped);
    }
    QueryService repair(*repair_db, repair_config);
    int repair_runs = 0;
    while (repair_runs < 8) {
      repair.Submit(BuildQueryPlan(*repair_db, FindQuery("q6")), "q6");
      repair.Drain();
      ++repair_runs;
      if (!repair.repairs().actions().empty() &&
          (repair.repairs().actions().front().state == GuardState::kKept ||
           repair.repairs().actions().front().state == GuardState::kReverted)) {
        break;
      }
    }
    sched_repairs_applied = repair.repairs().applied();
    sched_repairs_reverted = repair.repairs().reverted();
    sched_repair_ok = repair.repairs().actions().size() == 1 &&
                      repair.repairs().actions().front().state == GuardState::kKept &&
                      sched_repairs_applied == 1 && sched_repairs_reverted == 0;
    std::printf("placement repair: %d run(s), %llu applied, %llu reverted %s\n", repair_runs,
                static_cast<unsigned long long>(sched_repairs_applied),
                static_cast<unsigned long long>(sched_repairs_reverted),
                sched_repair_ok ? "[ok]" : "[FAIL: repair not kept]");
    std::printf("\n%s\n", RenderGuardTimeline(repair.repairs()).c_str());
  }
  const bool sched_ok =
      sched_slack_ok && sched_admission_ok && sched_results_identical && sched_repair_ok;

  // --- Sharded multi-node service: fan-out fidelity, aggregation tree, degenerate tower ---
  //
  // Fixed scale like the sched scenarios: the fan-out/merge identity gates compare against a
  // reference run over the same dataset, and --smoke must not move either side.
  std::printf("\n--- Sharded service: fan-out, fleet aggregation tree, 1-shard identity ---\n");
  TpchOptions shard_options;
  shard_options.scale = 0.01;
  ServiceConfig shard_service_config;
  shard_service_config.parallel.workers = 4;
  shard_service_config.max_active_sessions = 2;
  shard_service_config.session_hashtables_bytes = 32ull << 20;
  shard_service_config.session_output_bytes = 16ull << 20;
  shard_service_config.profiling.period = 311;
  ShardServiceConfig shard_config;
  shard_config.service = shard_service_config;
  shard_config.merge_sampling = DefaultMergeSampling();
  constexpr uint32_t kBenchShards = 4;
  // One DatabaseConfig for every database in this scenario (shards, 1-shard tower, unsharded
  // reference): the 1-shard byte-identity gate requires identical region layouts. The trimmed
  // sizes stay because region sizes fix every simulated address, and so every BENCH_*.json
  // number. Sized for the 4-shard coordinator (the staging-ring head room is unused elsewhere —
  // ShardArenaBytes degenerates to ServiceArenaBytes at 1 shard).
  DatabaseConfig shard_db_config;
  shard_db_config.columns_bytes = 64ull << 20;
  shard_db_config.strings_bytes = 8ull << 20;
  shard_db_config.hashtables_bytes = 64ull << 20;
  shard_db_config.output_bytes = 32ull << 20;
  shard_db_config.extra_bytes = ShardArenaBytes(shard_config, kBenchShards);
  // Six fan-out plans (they scan the range-partitioned fact tables) plus one routed plan
  // (q16 touches only replicated tables, so it runs whole on one shard).
  const std::vector<std::string> shard_workload = {"q6", "q1", "q3", "q14", "q4", "q12", "q16"};

  // Unsharded reference: the same workload through a plain QueryService over the same dataset.
  auto shard_ref_db = std::make_unique<Database>(shard_db_config);
  GenerateTpch(*shard_ref_db, shard_options);
  QueryService shard_ref(*shard_ref_db, shard_service_config);
  std::vector<TicketId> shard_ref_ids;
  for (const std::string& name : shard_workload) {
    shard_ref_ids.push_back(
        shard_ref.Submit(BuildQueryPlan(*shard_ref_db, FindQuery(name)), name));
  }
  shard_ref.Drain();
  const std::string shard_ref_profile = shard_ref.fleet_profile().Render();

  // One full 4-shard run; called twice, so the fleet-aggregate JSON doubles as the in-process
  // determinism gate (the CI determinism job diffs it across two bench invocations instead).
  struct ShardRunOutcome {
    bool results_ok = true;
    bool merge_visible = false;
    bool invalidation_ok = false;
    uint64_t fanout = 0;
    uint64_t routed = 0;
    uint64_t invalidations = 0;
    uint64_t cross_bytes = 0;
    uint64_t cross_events = 0;
    uint64_t merge_samples = 0;
    uint64_t rollup_cycles = 0;
    uint32_t levels = 0;
    uint64_t leaves = 0;
    uint64_t fleet_plans = 0;
    std::string fleet_json;
  };
  auto run_sharded = [&]() {
    ShardRunOutcome out;
    ShardCatalogConfig catalog_config;
    catalog_config.shards = kBenchShards;
    catalog_config.db = shard_db_config;
    catalog_config.tpch = shard_options;
    ShardCatalog catalog(catalog_config);
    ShardedService sharded(catalog, shard_config);
    std::vector<TicketId> ids;
    for (const std::string& name : shard_workload) {
      ids.push_back(sharded.Submit(
          name, [&](Database& sdb) { return BuildQueryPlan(sdb, FindQuery(name)); }));
    }
    sharded.Drain();
    for (size_t i = 0; i < ids.size(); ++i) {
      std::string diff;
      if (!Result::Equivalent(sharded.ticket(ids[i]).result,
                              shard_ref.ticket(shard_ref_ids[i]).result, true, &diff)) {
        out.results_ok = false;
        std::printf("shard mismatch on %s: %s\n", shard_workload[i].c_str(), diff.c_str());
      }
    }
    // Coordinated invalidation: registering a table on every shard bumps the shared catalog
    // version; the next submission must drop every shard's plan cache in one step and the
    // re-submitted fan-out must recompile (misses) to the same answer.
    for (uint32_t s = 0; s < catalog.shards(); ++s) {
      TableBuilder builder = catalog.db(s).CreateTableBuilder(
          TableSchema{"shard_ddl", {{"x", ColumnType::kInt64}}});
      catalog.db(s).AddTable(builder.Finish());
    }
    uint64_t misses_before = 0;
    for (uint32_t s = 0; s < catalog.shards(); ++s) {
      misses_before += sharded.shard(s).plan_cache().stats().misses;
    }
    const TicketId ddl_q6 = sharded.Submit(
        "q6", [&](Database& sdb) { return BuildQueryPlan(sdb, FindQuery("q6")); });
    sharded.Drain();
    uint64_t misses_after = 0;
    for (uint32_t s = 0; s < catalog.shards(); ++s) {
      misses_after += sharded.shard(s).plan_cache().stats().misses;
    }
    std::string ddl_diff;
    out.invalidation_ok = sharded.coordinated_invalidations() == 1 &&
                          misses_after > misses_before &&
                          Result::Equivalent(sharded.ticket(ddl_q6).result,
                                             shard_ref.ticket(shard_ref_ids[0]).result, true,
                                             &ddl_diff);
    const FleetAggregate fleet = sharded.AggregateFleet();
    for (const auto& [fingerprint, plan] : fleet.plans) {
      (void)fingerprint;
      const auto it = plan.operators.find(kMergeOperatorId);
      out.merge_visible |= it != plan.operators.end() && it->second.samples > 0;
    }
    out.fanout = sharded.fanout_queries();
    out.routed = sharded.routed_queries();
    out.invalidations = sharded.coordinated_invalidations();
    out.cross_bytes = sharded.cross_node_bytes();
    out.cross_events = sharded.coordinator_counters()[PmuEvent::kCrossNode];
    out.merge_samples = sharded.merge_sample_count();
    out.rollup_cycles = fleet.rollup_cycles;
    out.levels = fleet.levels;
    out.leaves = fleet.leaves;
    out.fleet_plans = fleet.plans.size();
    std::ostringstream fleet_json;
    WriteFleetAggregateJson(fleet, fleet_json);
    out.fleet_json = fleet_json.str();
    return out;
  };
  const ShardRunOutcome shard_run = run_sharded();
  const ShardRunOutcome shard_rerun = run_sharded();
  const bool shard_fleet_match = shard_run.fleet_json == shard_rerun.fleet_json;
  std::printf("4-shard fan-out: %llu fan-out + %llu routed queries, results %s\n",
              static_cast<unsigned long long>(shard_run.fanout),
              static_cast<unsigned long long>(shard_run.routed),
              shard_run.results_ok ? "identical to unsharded [ok]"
                                   : "[FAIL: diverged from unsharded]");
  std::printf("cross-node fabric: %llu bytes staged, %llu CROSS_NODE events, %llu merge "
              "samples, Merge operator %s\n",
              static_cast<unsigned long long>(shard_run.cross_bytes),
              static_cast<unsigned long long>(shard_run.cross_events),
              static_cast<unsigned long long>(shard_run.merge_samples),
              shard_run.merge_visible ? "visible in fleet profile [ok]"
                                      : "[FAIL: invisible]");
  std::printf("aggregation tree: %llu leaves, %u levels, %llu plans, rollup %llu cycles, "
              "re-run JSON %s\n",
              static_cast<unsigned long long>(shard_run.leaves), shard_run.levels,
              static_cast<unsigned long long>(shard_run.fleet_plans),
              static_cast<unsigned long long>(shard_run.rollup_cycles),
              shard_fleet_match ? "byte-identical [ok]" : "[FAIL: non-deterministic]");
  std::printf("coordinated invalidation: %llu invalidation(s) %s\n",
              static_cast<unsigned long long>(shard_run.invalidations),
              shard_run.invalidation_ok ? "[ok]" : "[FAIL]");

  // Degenerate tower: a 1-shard ShardedService must be byte-identical to the plain service —
  // same dataset bytes, shard_id 0 (pre-v7 streams), same profiles, same results.
  bool shard_one_identical = false;
  {
    ShardCatalogConfig tower_config;
    tower_config.shards = 1;
    tower_config.db = shard_db_config;
    tower_config.tpch = shard_options;
    ShardCatalog tower_catalog(tower_config);
    ShardedService tower(tower_catalog, shard_config);
    std::vector<TicketId> tower_ids;
    for (const std::string& name : shard_workload) {
      tower_ids.push_back(tower.Submit(
          name, [&](Database& sdb) { return BuildQueryPlan(sdb, FindQuery(name)); }));
    }
    tower.Drain();
    bool tower_results = true;
    for (size_t i = 0; i < tower_ids.size(); ++i) {
      std::string diff;
      tower_results = tower_results &&
                      Result::Equivalent(tower.ticket(tower_ids[i]).result,
                                         shard_ref.ticket(shard_ref_ids[i]).result, true, &diff);
    }
    const FleetAggregate tower_fleet = tower.AggregateFleet();
    const bool tower_profile_identical =
        tower.shard(0).fleet_profile().Render() == shard_ref_profile;
    shard_one_identical = tower_results && tower_profile_identical &&
                          tower_fleet.leaves == 1 && tower_fleet.levels == 0 &&
                          tower_fleet.rollup_cycles == 0 && tower.fanout_queries() == 0;
    std::printf("1-shard tower: results %s, service profile %s (fleet: %llu leaf, %u levels)\n",
                tower_results ? "identical [ok]" : "[FAIL]",
                tower_profile_identical ? "byte-identical [ok]" : "[FAIL: drifted]",
                static_cast<unsigned long long>(tower_fleet.leaves), tower_fleet.levels);
  }

  // Shard-count what-if: the recorded trace from the replay section, re-executed on a 4-shard
  // topology. Sharding re-partitions execution (fan-out, merges, different streams) but must
  // never move a result: the gate is zero result divergence with every query completing.
  ReplayReport shard_replay;
  {
    ShardServiceConfig shard_replay_config;
    shard_replay_config.service = trace.knobs;
    shard_replay_config.merge_sampling = DefaultMergeSampling();
    ShardCatalogConfig replay_catalog_config;
    replay_catalog_config.shards = kBenchShards;
    // Default regions: the shard heaps must reproduce the recording database's region layout
    // for the recorded literal bindings' packed string references to stay valid.
    replay_catalog_config.db.extra_bytes =
        ShardArenaBytes(shard_replay_config, kBenchShards);
    replay_catalog_config.tpch = options;
    ShardCatalog replay_catalog(replay_catalog_config);
    ReplayOptions shard_replay_options;
    shard_replay_options.shards = &replay_catalog;
    const ReplayRun shard_replay_run =
        ReplayTrace(replay_catalog.db(0), trace, shard_replay_options);
    shard_replay = DiffTraces(trace, shard_replay_run.trace);
  }
  const bool shard_replay_ok = shard_replay.results_diverged == 0 &&
                               shard_replay.replayed_queries == shard_replay.recorded_queries &&
                               shard_replay.replayed_completed == shard_replay.recorded_completed;
  std::printf("what-if shard_count=4 replay: %llu queries, %llu completed, %llu result "
              "divergence(s) %s\n",
              static_cast<unsigned long long>(shard_replay.replayed_queries),
              static_cast<unsigned long long>(shard_replay.replayed_completed),
              static_cast<unsigned long long>(shard_replay.results_diverged),
              shard_replay_ok ? "[ok]" : "[FAIL: sharding moved results]");

  const bool shard_ok = shard_run.results_ok && shard_run.merge_visible &&
                        shard_run.invalidation_ok && shard_fleet_match &&
                        shard_run.fanout == 7 && shard_run.routed == 1 &&
                        shard_run.cross_bytes > 0 && shard_run.cross_events > 0 &&
                        shard_run.merge_samples > 0 && shard_one_identical && shard_replay_ok &&
                        shard_run.fleet_json == shard_rerun.fleet_json;

  // --- Closed-loop re-optimization (src/reopt/): measured cardinalities drive the planner, ---
  // --- guarded by the regression detector. -------------------------------------------------
  std::printf("\nClosed-loop re-optimization (profile-guided re-planning)\n");

  // The misestimated join spine: supplier (estimate = its row count) sits below the part
  // filter, whose finalized estimate is the full part table even though the bound passes only
  // ~1/40th of it — a 40x divergence the tuple counters must surface.
  const int64_t part_bound = std::max<int64_t>(1, static_cast<int64_t>(counts.part) / 40);
  auto spine_plan = [part_bound](Database& sdb, bool part_first) {
    PlanBuilder supplier = PlanBuilder::Scan(sdb.table("supplier"));
    PlanBuilder part = PlanBuilder::Scan(sdb.table("part"));
    part.FilterBy(MakeBinary(BinOp::kLt, part.Col("p_partkey"),
                             MakeLiteral(ColumnType::kInt64, part_bound)));
    PlanBuilder plan = PlanBuilder::Scan(sdb.table("lineitem"));
    if (part_first) {
      plan.JoinWith(std::move(part), {"l_partkey"}, {"p_partkey"}, {"p_retailprice"});
      plan.JoinWith(std::move(supplier), {"l_suppkey"}, {"s_suppkey"}, {"s_acctbal"});
    } else {
      plan.JoinWith(std::move(supplier), {"l_suppkey"}, {"s_suppkey"}, {"s_acctbal"});
      plan.JoinWith(std::move(part), {"l_partkey"}, {"p_partkey"}, {"p_retailprice"});
    }
    return plan.Build();
  };
  auto make_reopt_config = [](bool enabled, bool pessimize) {
    ServiceConfig rc;
    rc.parallel.workers = 4;
    rc.max_active_sessions = 2;
    rc.session_hashtables_bytes = 32ull << 20;
    rc.session_output_bytes = 16ull << 20;
    rc.session_state_bytes = 512ull * 1024;
    rc.profiling.period = 311;
    rc.tiering.enabled = true;  // The candidate swap rides the tiered cache's machinery.
    rc.reopt.enabled = enabled;
    rc.reopt.pessimize = pessimize;
    rc.continuous.window.width_cycles = 1'000'000;
    return rc;
  };
  constexpr int kReoptRuns = 14;
  struct ReoptOutcome {
    uint64_t actions = 0;
    uint64_t kept = 0;
    uint64_t reverted = 0;
    uint64_t divergence_pct = 0;
    bool reordered = false;
    uint64_t final_execute = 0;
    Result first_result;
    Result final_result;
    std::string json;  // Deterministic artifact: the double-run gate diffs it byte for byte.
  };
  auto run_reopt_loop = [&](bool enabled, bool pessimize, bool part_first) {
    const ServiceConfig rc = make_reopt_config(enabled, pessimize);
    DatabaseConfig rdb_config;
    rdb_config.extra_bytes = ServiceArenaBytes(rc);
    auto rdb = std::make_unique<Database>(rdb_config);
    GenerateTpch(*rdb, options);
    QueryService rservice(*rdb, rc);

    ReoptOutcome out;
    TicketId first = 0;
    TicketId last = 0;
    for (int i = 0; i < kReoptRuns; ++i) {
      last = rservice.Submit(spine_plan(*rdb, part_first), "q_reopt_spine");
      rservice.Drain();
      if (i == 0) {
        first = last;
      }
    }
    out.actions = rservice.reopts().actions().size();
    out.kept = rservice.reopts().kept();
    out.reverted = rservice.reopts().reverted();
    if (!rservice.reopts().actions().empty()) {
      out.divergence_pct = rservice.reopts().actions().front().payload.divergence_pct;
      out.reordered = rservice.reopts().actions().front().payload.reordered;
    }
    out.final_execute = rservice.ticket(last).execute_cycles;
    out.first_result = rservice.ticket(first).result;
    out.final_result = rservice.ticket(last).result;
    std::ostringstream json;
    json << "{\"reopt_actions\": " << out.actions << ", \"reopt_kept\": " << out.kept
         << ", \"reopt_reverted\": " << out.reverted
         << ", \"reopt_divergence_pct\": " << out.divergence_pct
         << ", \"reopt_final_execute_cycles\": " << out.final_execute
         << ", \"reopt_timeline_hash\": \""
         << FingerprintKey({Fnv1a64(RenderGuardTimeline(rservice.reopts())), 0})
         << "\", \"reopt_cardstore_hash\": \""
         << FingerprintKey({Fnv1a64(RenderCardStore(rservice.cards())), 0}) << "\"}";
    out.json = json.str();
    return out;
  };

  // Gate 1+2: the injected misestimate (supplier below part-filter, contradicted by the tuple
  // counters) must trigger a re-plan whose kept candidate beats the reopt-off control — both
  // end promoted to the same tier, so the residual gap is purely the measured join order.
  const ReoptOutcome reopt_run = run_reopt_loop(true, false, false);
  const ReoptOutcome reopt_control = run_reopt_loop(false, false, false);
  const bool reopt_triggered = reopt_run.actions == 1 && reopt_run.reordered &&
                               reopt_run.divergence_pct >= 400 && reopt_run.kept == 1 &&
                               reopt_run.reverted == 0 && reopt_control.actions == 0;
  std::string reopt_diff;
  // Work stealing appends output in morsel-completion order, which differs across physical
  // plans, so results compare as multisets.
  const bool reopt_results_identical =
      Result::Equivalent(reopt_run.first_result, reopt_run.final_result, false, &reopt_diff) &&
      Result::Equivalent(reopt_control.final_result, reopt_run.final_result, false,
                         &reopt_diff);
  const double reopt_speedup = reopt_run.final_execute > 0
                                   ? static_cast<double>(reopt_control.final_execute) /
                                         static_cast<double>(reopt_run.final_execute)
                                   : 0.0;
  const bool reopt_improved =
      reopt_run.final_execute < reopt_control.final_execute && reopt_results_identical;
  std::printf("misestimate trigger: %llu action(s), divergence %llu%%, reordered %s %s\n",
              static_cast<unsigned long long>(reopt_run.actions),
              static_cast<unsigned long long>(reopt_run.divergence_pct),
              reopt_run.reordered ? "yes" : "no",
              reopt_triggered ? "[ok]" : "[FAIL: no re-plan]");
  std::printf("kept plan: execute %llu vs control %llu cycles (%.2fx), results %s %s\n",
              static_cast<unsigned long long>(reopt_run.final_execute),
              static_cast<unsigned long long>(reopt_control.final_execute), reopt_speedup,
              reopt_results_identical ? "identical" : "DIVERGED",
              reopt_improved ? "[ok]" : "[FAIL: no measured win]");

  // Gate 3: fault injection — the pessimize knob rewrites the already-optimal spine to the
  // worst measured order; the guard must catch the regression and revert the swap.
  const ReoptOutcome reopt_bad = run_reopt_loop(true, true, true);
  std::string reopt_bad_diff;
  const bool reopt_revert_ok =
      reopt_bad.actions == 1 && reopt_bad.kept == 0 && reopt_bad.reverted == 1 &&
      Result::Equivalent(reopt_bad.first_result, reopt_bad.final_result, false,
                         &reopt_bad_diff);
  std::printf("injected pessimizing rewrite: %llu reverted, %llu kept %s\n",
              static_cast<unsigned long long>(reopt_bad.reverted),
              static_cast<unsigned long long>(reopt_bad.kept),
              reopt_revert_ok ? "[ok]" : "[FAIL: guard did not revert]");

  // Gate 4: the whole closed loop is deterministic — an identical second run produces a
  // byte-identical reopt artifact (the CI determinism job diffs the JSON across two whole
  // bench invocations).
  const ReoptOutcome reopt_rerun = run_reopt_loop(true, false, false);
  const bool reopt_deterministic = reopt_run.json == reopt_rerun.json;
  std::printf("double run: reopt JSON %s\n",
              reopt_deterministic ? "byte-identical [ok]" : "[FAIL: non-deterministic]");

  const bool reopt_ok =
      reopt_triggered && reopt_improved && reopt_revert_ok && reopt_deterministic;

  if (GlobalBenchOptions().json) {
    std::ofstream reopt_out("BENCH_reopt.json");
    reopt_out << reopt_run.json << "\n";
    std::printf("# wrote BENCH_reopt.json\n");
  }

  if (GlobalBenchOptions().json) {
    JsonWriter json;
    json.BeginObject();
    json.Field("queries_per_pass", static_cast<uint64_t>(workload.size()));
    json.Field("workers", static_cast<uint64_t>(config.parallel.workers));
    json.Field("max_active_sessions", static_cast<uint64_t>(config.max_active_sessions));
    json.Field("cold_cycles", cold_cycles);
    json.Field("warm_cycles", warm_cycles);
    json.Field("warm_speedup", speedup);
    json.Field("cache_hits", cache.hits);
    json.Field("cache_misses", cache.misses);
    json.BeginArray("plans");
    for (const auto& [fingerprint, plan] : service.fleet_profile().plans()) {
      (void)fingerprint;
      json.BeginObject();
      json.Field("name", plan.name);
      json.Field("fingerprint", FingerprintKey({plan.fingerprint, 0}));
      json.Field("executions", plan.executions);
      json.Field("cache_hits", plan.cache_hits);
      json.Field("cache_misses", plan.cache_misses);
      json.Field("compile_cycles", plan.compile_cycles);
      json.Field("execute_cycles", plan.execute_cycles);
      json.Field("samples", plan.samples);
      json.EndObject();
    }
    json.EndArray();
    json.Field("governor_budget", budget);
    json.Field("governor_measured_share", measured_share);
    json.Field("governor_within_budget", governor_ok);
    json.BeginArray("governor_plans");
    for (const auto& [fingerprint, state] : service.governor().plans()) {
      json.BeginObject();
      json.Field("fingerprint", FingerprintKey({fingerprint, 0}));
      json.Field("name", state.name);
      json.Field("period", state.period);
      json.Field("observations", state.observations);
      json.Field("samples", state.samples);
      json.Field("overhead_share", state.OverheadShare());
      json.EndObject();
    }
    json.EndArray();
    json.BeginArray("window_rollups");
    for (const WindowRollup& rollup : service.windows().RollUpAll()) {
      json.BeginObject();
      json.Field("fingerprint", FingerprintKey({rollup.fingerprint, 0}));
      json.Field("name", rollup.name);
      json.Field("windows", rollup.window_count);
      json.Field("executions", rollup.executions);
      json.Field("samples", rollup.samples);
      json.Field("latency_p50", rollup.latency_p50);
      json.Field("latency_p95", rollup.latency_p95);
      json.Field("latency_max", rollup.latency_max);
      json.EndObject();
    }
    json.EndArray();
    json.Field("critpath_plans", static_cast<uint64_t>(service.criticality().plans().size()));
    json.Field("critpath_critical_cycles", critpath_critical_cycles);
    json.Field("critpath_wall_cycles", critpath_wall_cycles);
    json.Field("critpath_complete", critpath_ok);
    json.BeginArray("critpath_label_counts");
    for (int label = 0; label < kBottleneckLabels; ++label) {
      json.BeginObject();
      json.Field("label", BottleneckName(static_cast<Bottleneck>(label)));
      json.Field("pipelines", critpath_label_counts[label]);
      json.EndObject();
    }
    json.EndArray();
    json.BeginArray("critpath_plans_detail");
    for (const auto& [fingerprint, plan] : service.criticality().plans()) {
      json.BeginObject();
      json.Field("name", plan.name);
      json.Field("fingerprint", FingerprintKey({fingerprint, 0}));
      json.Field("executions", plan.executions);
      json.Field("critical_cycles", plan.critical_work_cycles);
      json.Field("top_pipeline", static_cast<uint64_t>(plan.top_pipeline));
      json.Field("top_share_pct", plan.top_share_pct);
      json.Field("bottleneck", BottleneckName(plan.dominant_label()));
      json.EndObject();
    }
    json.EndArray();
    json.Field("regression_false_positives", static_cast<uint64_t>(false_positives));
    json.Field("regressions_fired", static_cast<uint64_t>(findings.size()));
    json.Field("injected_shift_flagged", shift_flagged);
    json.Field("tier_cold_cost_cycles", tier_cold_cost);
    json.Field("tier_warm_avg_cycles", tier_warm_avg);
    json.Field("tier_control_variant_avg_cycles", tier_control_avg);
    json.Field("tier_warm_speedup", tier_warm_speedup);
    json.Field("tier_zero_new_code", tier_zero_new_code);
    json.Field("tier_patched_hits", tier_patched_hits);
    json.Field("tier_swaps", tiered.plan_cache().stats().tier_swaps);
    json.Field("tier_promotion_runs", static_cast<uint64_t>(tier_promotion_runs));
    json.Field("tier_results_identical", tier_results_identical);
    json.Field("tier_attribution_parity", tier_attribution_parity);
    json.Field("tier_timeline_samples", timeline.samples);
    json.Field("tier_timeline_baseline_samples", timeline.baseline_samples);
    json.Field("tier_timeline_optimized_samples", timeline.optimized_samples);
    json.Field("tier_transitions", timeline.transitions);
    json.Field("tier_events", timeline.transitions + timeline.swapped);
    json.Field("replay_identical", replay1.identical);
    json.Field("replay_reports_match", replay_reports_match);
    json.Field("replay_recorded_queries", replay1.recorded_queries);
    json.Field("replay_10x_queries", replay_10x.replayed_queries);
    json.Field("replay_10x_completed", replay_10x.replayed_completed);
    json.Field("replay_10x_rejected", replay_10x.replayed_rejected);
    json.Field("replay_10x_timed_out", replay_10x.replayed_timed_out);
    json.Field("replay_scheduler_results_diverged", replay_sched.results_diverged);
    json.Field("replay_scheduler_cycles", replay_sched.replayed_cycles);
    json.Field("replay_slack_results_diverged", replay_slack.results_diverged);
    json.Field("replay_slack_cycles", replay_slack.replayed_cycles);
    json.Field("sched_slack_ordered_scans", sched_stats.slack_ordered_scans);
    json.Field("sched_slack_hits", sched_stats.slack_hits);
    json.Field("sched_deferred_morsels", sched_stats.deferred_morsels);
    json.Field("sched_slack_steals", sched_stats.slack_steals);
    json.Field("sched_expected_critical_cycles", sched_expected_critical);
    json.Field("sched_infeasible_rejections", sched_infeasible);
    json.Field("sched_repartitions_applied", sched_repairs_applied);
    json.Field("sched_repartitions_reverted", sched_repairs_reverted);
    json.Field("sched_results_identical", sched_results_identical);
    json.Field("sched_ok", sched_ok);
    json.Field("shard_count", static_cast<uint64_t>(kBenchShards));
    json.Field("shard_fanout_queries", shard_run.fanout);
    json.Field("shard_routed_queries", shard_run.routed);
    json.Field("shard_coordinated_invalidations", shard_run.invalidations);
    json.Field("shard_cross_node_bytes", shard_run.cross_bytes);
    json.Field("shard_cross_node_events", shard_run.cross_events);
    json.Field("shard_merge_samples", shard_run.merge_samples);
    json.Field("shard_fleet_leaves", shard_run.leaves);
    json.Field("shard_fleet_levels", static_cast<uint64_t>(shard_run.levels));
    json.Field("shard_fleet_plans", shard_run.fleet_plans);
    json.Field("shard_rollup_cycles", shard_run.rollup_cycles);
    json.Field("shard_results_identical", shard_run.results_ok);
    json.Field("shard_merge_operator_visible", shard_run.merge_visible);
    json.Field("shard_fleet_rollup_match", shard_fleet_match);
    json.Field("shard_one_identical", shard_one_identical);
    json.Field("shard_replay_results_diverged", shard_replay.results_diverged);
    json.Field("shard_replay_completed", shard_replay.replayed_completed);
    json.Field("shard_ok", shard_ok);
    json.Field("reopt_actions", reopt_run.actions);
    json.Field("reopt_kept", reopt_run.kept);
    json.Field("reopt_reverted_injected", reopt_bad.reverted);
    json.Field("reopt_divergence_pct", reopt_run.divergence_pct);
    json.Field("reopt_final_execute_cycles", reopt_run.final_execute);
    json.Field("reopt_control_execute_cycles", reopt_control.final_execute);
    json.Field("reopt_speedup", reopt_speedup);
    json.Field("reopt_results_identical", reopt_results_identical);
    json.Field("reopt_deterministic", reopt_deterministic);
    json.Field("reopt_ok", reopt_ok);
    json.EndObject();
    json.WriteTo("BENCH_service.json");
  }
  if (GlobalBenchOptions().json) {
    // The CI determinism job runs the bench twice and diffs this file byte for byte: the
    // hierarchical roll-up must be a pure function of the submission sequence.
    std::ofstream fleet_out("BENCH_shard_fleet.json");
    fleet_out << shard_run.fleet_json;
    std::printf("# wrote BENCH_shard_fleet.json\n");
  }

  std::printf(
      "Expected shape: the warm pass serves every query from the plan cache, so its\n"
      "throughput exceeds the cold pass by at least 2x at small scales where compilation\n"
      "dominates; the governor holds measured sampling overhead within half a point of its\n"
      "budget; the regression detector flags only the injected literal shift; under tiering,\n"
      "literal variants patch into the cached code (zero new bytes, >=2x cheaper than an\n"
      "exact-keyed variant recompile) and the hot fingerprint is promoted in the background\n"
      "with bit-identical results and a fully tier-attributed timeline; replaying a recorded\n"
      "trace on this build reproduces the recording bit for bit, and the 10x what-if sheds\n"
      "surplus load through admission rejections rather than failures; the slack feedback\n"
      "loop reorders learned scans and bounces infeasible deadlines without moving a single\n"
      "result byte, and the misplaced-column scenario resolves as exactly one kept repair;\n"
      "the 4-shard service answers every fan-out query identically to the unsharded engine\n"
      "with its Merge operator and CROSS_NODE traffic visible in a deterministic fleet\n"
      "aggregate, the 1-shard tower is byte-identical to the plain service, and the\n"
      "shard-count what-if replay moves streams and timing but not one result; the closed\n"
      "reopt loop re-plans the misestimated spine once, the guard keeps the faster join\n"
      "order and reverts an injected pessimizing rewrite, and the loop replays to the\n"
      "same bytes.\n");
  const bool ok = speedup >= 2.0 && governor_ok && rankings_agree && critpath_ok &&
                  false_positives == 0 && shift_flagged && tiering_ok && replay_ok &&
                  sched_ok && shard_ok && reopt_ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dfp

int main(int argc, char** argv) {
  dfp::BenchInit(argc, argv);
  return dfp::Main();
}
