// Query-service scenario: a long-lived serving process handles a stream of queries from
// several "applications". The service fingerprints every incoming plan, serves repeats from
// the compiled-plan cache (zero new generated code, bit-identical results, correctly
// attributed profiles), schedules up to two sessions concurrently on the shared worker pool,
// and aggregates a fleet-level profile across everything it served — the always-on production
// framing of Section 5.2, extended to a multi-query process.
//
// The continuous-profiling layer runs on top: the adaptive sampling governor bounds measured
// profiling cost to its budget, the windowed fleet profile buckets the same stream by service
// time, and a baseline snapshot plus an identical rerun demonstrates the regression detector's
// quietness (any finding on the rerun is a false positive and fails the process — the
// CI determinism job runs this demo twice and also diffs the exported window JSON for
// determinism).
#include <cstdio>
#include <fstream>

#include "src/service/query_service.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

int main() {
  using namespace dfp;

  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.profiling.period = 5000;
  config.continuous.governor.enabled = true;
  config.continuous.governor.overhead_budget = 0.02;
  // Push-style alerting: DetectRegressions() invokes this once per finding, so a drifted plan
  // surfaces as a one-line alert without anyone polling the findings list.
  int alerts_fired = 0;
  config.continuous.regression_alert = [&alerts_fired](const RegressionFinding& finding) {
    ++alerts_fired;
    std::printf("ALERT: plan %s (%016llx) drifted — cycles/row %.1f -> %.1f\n",
                finding.name.c_str(), static_cast<unsigned long long>(finding.fingerprint),
                finding.baseline_cycles_per_row, finding.current_cycles_per_row);
  };

  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);  // Per-session scratch arenas.
  Database db(db_config);
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(db, options);

  QueryService service(db, config);

  // A serving day in miniature: three applications issue overlapping workloads, so the same
  // plan shapes recur. Only the first occurrence of each shape compiles.
  const char* stream[] = {"q6", "q1", "q6", "q3", "q1", "q6", "q14", "q1", "q6"};
  std::printf("Submitting %zu queries (4 distinct plan shapes)...\n\n",
              sizeof(stream) / sizeof(stream[0]));
  for (const char* name : stream) {
    TicketId id = service.Submit(BuildQueryPlan(db, FindQuery(name)), name);
    (void)id;
  }
  service.Drain();

  std::printf("Per-ticket outcome (hit = served from the plan cache):\n");
  for (uint32_t id = 1; id <= service.ticket_count(); ++id) {
    const QueryTicket& t = service.ticket(id);
    std::printf("  #%u %-4s %-4s compile %9llu cycles, execute %9llu cycles, %llu result rows\n",
                t.id, t.name.c_str(), t.cache_hit ? "hit" : "miss",
                static_cast<unsigned long long>(t.compile_cycles),
                static_cast<unsigned long long>(t.execute_cycles),
                static_cast<unsigned long long>(t.result.rows().size()));
  }

  const PlanCacheStats& cache = service.plan_cache().stats();
  std::printf("\nPlan cache: %llu hits, %llu misses, %llu code bytes resident\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.resident_code_bytes));

  // The fleet profile aggregates per-fingerprint: every execution of q6 — hit or miss —
  // contributes to the same plan entry, so the hottest-operator ranking reflects the whole
  // serving period, not a single run.
  std::printf("\n%s\n", service.fleet_profile().Render(/*top_k=*/5).c_str());

  // Continuous layer: replay the stream a few times so the governor converges on its 2%
  // budget, then freeze a baseline and replay once more — identical input, so the regression
  // detector must stay quiet.
  auto run_stream = [&] {
    for (const char* name : stream) {
      service.Submit(BuildQueryPlan(db, FindQuery(name)), name);
    }
    service.Drain();
  };
  for (int pass = 0; pass < 3; ++pass) {
    run_stream();
  }
  std::printf("%s\n", service.governor().Render().c_str());
  std::printf("%s\n", service.windows().Render().c_str());

  service.SnapshotBaseline();
  run_stream();
  const auto findings = service.DetectRegressions();
  std::printf("identical rerun after baseline snapshot: %zu regression finding(s)%s\n",
              findings.size(), findings.empty() ? "" : " [FALSE POSITIVE]");
  if (!findings.empty()) {
    std::printf("%s", RenderRegressionReport(findings).c_str());
  }

  // Injected plan-mix shift: a q6 variant with far wider literals shares q6's structural
  // fingerprint but does much more work per row. The detector must flag it, and the alert hook
  // above must have pushed its one-liner.
  const char* shifted_q6 =
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= date '1992-01-01' and l_shipdate < date '1999-01-01' "
      "and l_discount between 0.00 and 0.10 and l_quantity < 100";
  const TicketId probe = service.Submit(PlanSql(db, FindQuery("q6").sql), "q6");
  service.Drain();
  const uint64_t q6_fingerprint = service.ticket(probe).fingerprint.structure;
  service.SnapshotBaseline();
  for (int i = 0; i < 6; ++i) {
    service.Submit(PlanSql(db, shifted_q6), "q6");
    service.Drain();
  }
  alerts_fired = 0;
  const auto shift_findings = service.DetectRegressions();
  bool shift_flagged = false;
  for (const auto& finding : shift_findings) {
    shift_flagged |= finding.fingerprint == q6_fingerprint;
  }
  std::printf("injected q6 literal shift: %sflagged, %d alert(s) pushed\n",
              shift_flagged ? "" : "NOT ", alerts_fired);

  // Deterministic window export: two runs of this demo must produce byte-identical JSON.
  {
    std::ofstream out("service_windows.json");
    service.windows().WriteJson(out);
  }
  std::printf("windowed profile written to service_windows.json\n");
  return (findings.empty() && shift_flagged && alerts_fired >= 1) ? 0 : 1;
}
