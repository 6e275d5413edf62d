// Fleet record/replay walkthrough: record live traffic once, then re-ask questions of it
// forever. A serving process records every admitted query — plan template, literal bindings,
// arrival cycle, session weight/deadline, admission outcome — into a versioned text trace.
// Replaying that trace on the same build reproduces the recording bit for bit (the service is
// a pure function of its configuration and submission sequence), which turns "did this commit
// change serving behavior?" into a diff of two replay reports. What-if replays then answer
// capacity questions offline: here, "what breaks at 10x the recorded session load?" — the
// bounded admission queue must shed the surplus as rejections, not crashes.
//
// The demo exits nonzero if the identity replay is not zero-diff or the 10x replay fails to
// degrade through admission control, so CI can run it as a smoke check.
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/replay/trace.h"
#include "src/service/query_service.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace {

std::string Q6Variant(double lo, double hi, int quantity) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "select sum(l_extendedprice * l_discount) as revenue from lineitem "
                "where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
                "and l_discount between %.2f and %.2f and l_quantity < %d",
                lo, hi, quantity);
  return buffer;
}

// Recording and replaying use separate, identically generated databases: the service compiles
// code and carves session regions out of its database, so replaying into the recording
// database would shift every address and therefore every sample stream.
std::unique_ptr<dfp::Database> MakeDb(const dfp::ServiceConfig& config) {
  dfp::DatabaseConfig db_config;
  db_config.extra_bytes = dfp::ServiceArenaBytes(config);
  auto db = std::make_unique<dfp::Database>(db_config);
  dfp::TpchOptions options;
  options.scale = 0.01;
  dfp::GenerateTpch(*db, options);
  return db;
}

}  // namespace

int main() {
  using namespace dfp;

  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.profiling.period = 311;
  config.tiering.enabled = true;

  // --- Record: a mixed workload through an attached recorder ---
  std::printf("=== Recording a mixed workload ===\n");
  std::string trace_text;
  {
    auto db = MakeDb(config);
    QueryService service(*db, config);
    TraceRecorder recorder;
    service.AttachRecorder(recorder);

    service.Submit(BuildQueryPlan(*db, FindQuery("q1")), "q1");
    service.Submit(BuildQueryPlan(*db, FindQuery("q3")), "q3");
    service.Drain();
    service.Submit(BuildQueryPlan(*db, FindQuery("q1")), "q1");
    for (double lo : {0.02, 0.03, 0.04, 0.05}) {
      service.Submit(PlanSql(*db, Q6Variant(lo, lo + 0.02, 24)), "q6");
    }
    service.Drain();
    for (double lo : {0.02, 0.03, 0.04}) {
      service.Submit(PlanSql(*db, Q6Variant(lo, lo + 0.02, 24)), "q6");
    }
    service.Drain();

    recorder.Finish(service);
    trace_text = EncodeTraceText(recorder.trace());
    std::printf("recorded %llu queries into a %zu-byte trace\n",
                static_cast<unsigned long long>(recorder.trace().summary.queries),
                trace_text.size());
  }

  // Persist and re-read, as a production trace would be.
  const char* trace_path = "dfp_trace.txt";
  {
    std::ofstream out(trace_path);
    out << trace_text;
  }
  std::ifstream in(trace_path);
  const WorkloadTrace trace = ReadTrace(in);
  std::printf("wrote and re-read %s\n\n", trace_path);

  // --- Replay 1: the recorded config — must reproduce the recording bit for bit ---
  std::printf("=== Identity replay (zero-diff contract) ===\n");
  ReplayReport identity;
  {
    auto db = MakeDb(config);
    const ReplayRun run = ReplayTrace(*db, trace);
    identity = DiffTraces(trace, run.trace);
    std::printf("%s\n", RenderReplayReport(identity).c_str());
  }

  // --- Replay 2: what breaks at 10x sessions? ---
  std::printf("=== What-if: 10x session load ===\n");
  ReplayReport scaled;
  {
    // Load scaling changes the traffic, not the service: the recorded config still sizes the
    // database.
    auto db = MakeDb(trace.knobs);
    ReplayOptions replay_options;
    replay_options.session_multiplier = 10;
    const ReplayRun run = ReplayTrace(*db, trace, replay_options);
    scaled = DiffTraces(trace, run.trace);
    scaled.session_multiplier = replay_options.session_multiplier;
    std::printf("%s\n", RenderReplayReport(scaled).c_str());
  }

  const bool scaled_ok =
      scaled.replayed_rejected > scaled.recorded_rejected &&
      scaled.replayed_completed + scaled.replayed_rejected + scaled.replayed_timed_out ==
          scaled.replayed_queries;
  std::printf("identity replay %s, 10x load shed through admission control %s\n",
              identity.identical ? "zero-diff [ok]" : "[FAIL]",
              scaled_ok ? "[ok]" : "[FAIL]");
  return identity.identical && scaled_ok ? 0 : 1;
}
