// Deterministic workload traces: the recorded half of fleet record/replay.
//
// A WorkloadTrace captures everything needed to re-run admitted traffic bit-for-bit against a
// fresh QueryService — and everything needed to diff the re-run against what was observed the
// first time:
//
//  - the service knobs the traffic ran under (the knob table below: scheduler, session limits,
//    sampling, tiering, the closed loops and their guard thresholds...), so a replay
//    reconstructs the same configuration and a what-if run replays an edited copy of it;
//  - one serialized plan template per structural fingerprint (src/replay/plan_codec.h), plus
//    per-query literal bindings, so every submission can be rebuilt without the SQL front end;
//  - the submission schedule: per query its arrival service-clock TSC, session weight, deadline,
//    and admission outcome, with Drain() boundaries preserved as explicit markers (the scheduler
//    admits inside Drain, so batch boundaries are part of the workload, not an artifact);
//  - the recorded observations: per-query completion metrics including an FNV-1a hash of the
//    serialized sample stream, and a fleet summary (throughput, per-fingerprint latency
//    quantiles, hottest operators, tier timeline totals) that the ReplayReport diffs against.
//
// The text format has one version, like the sample streams; readers refuse any other header.
// Serialization is a fixed point: parse(write(trace)) == trace and write(parse(text)) == text,
// which the format tests pin down.
#ifndef DFP_SRC_REPLAY_TRACE_H_
#define DFP_SRC_REPLAY_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/service/fingerprint.h"
#include "src/service/query_service.h"
#include "src/tiering/literals.h"
#include "src/tiering/report.h"

namespace dfp {

// FNV-1a 64-bit over a byte string — the stream-identity hash stored per recorded query.
uint64_t Fnv1a64(const std::string& bytes);

// The knob table: every ServiceConfig field a trace captures, named by its member path, in
// `knobs` line order. `visit(name, field)` runs once per row, where `field(config)` returns
// that member of a (const or mutable) ServiceConfig. Capture, comparison, the `knobs` line and
// its parser all walk this one list, so a row added here is recorded, replayed and diffed with
// no other change. Left out on purpose: `state_path` and `continuous.regression_alert` (process
// wiring; replay always starts from a fresh service, see TraceRecorder) and
// `parallel.shard_id` (assigned per shard by the coordinator). A config value nothing sets is
// a constant beside its reader, not a row.
template <typename Visit>
void ForEachKnob(Visit&& visit) {
#define DFP_KNOB(path) visit(#path, [](auto& config) -> auto& { return config.path; })
  DFP_KNOB(parallel.workers);
  DFP_KNOB(parallel.morsel_rows);
  DFP_KNOB(parallel.scheduler);
  DFP_KNOB(max_active_sessions);
  DFP_KNOB(session_hashtables_bytes);
  DFP_KNOB(session_state_bytes);
  DFP_KNOB(session_output_bytes);
  DFP_KNOB(profiling.event);
  DFP_KNOB(profiling.period);
  DFP_KNOB(profiling.capture_address);
  DFP_KNOB(profiling.attribution);
  DFP_KNOB(profiling.tag_all_instructions);
  DFP_KNOB(profiling.enable_sampling);
  DFP_KNOB(profiling.packed_tags);
  DFP_KNOB(continuous.windows_enabled);
  DFP_KNOB(continuous.window.width_cycles);
  DFP_KNOB(continuous.governor.enabled);
  DFP_KNOB(continuous.governor.overhead_budget);
  // The remote-share threshold drives both guards' keep/revert verdicts.
  DFP_KNOB(continuous.regression.remote_share_drift);
  DFP_KNOB(tiering.enabled);
  DFP_KNOB(tiering.break_even_ratio);
  DFP_KNOB(sched.slack_scheduling);
  DFP_KNOB(sched.placement_repair);
  DFP_KNOB(sched.deadline_admission);
  DFP_KNOB(sched.repair_pessimize);
  DFP_KNOB(reopt.enabled);
  DFP_KNOB(reopt.semi_join_reduction);
  DFP_KNOB(reopt.pessimize);
#undef DFP_KNOB
}

// `config` reduced to its knob-table fields; every other field keeps its default.
ServiceConfig CaptureKnobs(const ServiceConfig& config);

// True when every knob-table field of `a` and `b` matches (doubles bit for bit).
bool KnobsEqual(const ServiceConfig& a, const ServiceConfig& b);

enum class TraceOutcome : uint8_t {
  kAdmitted = 0,  // Entered the queue (and, the queue being drained, eventually ran).
  kRejected = 1,  // Bounced at submission: queue full.
};

// One recorded submission plus its observed completion.
struct TraceQuery {
  uint32_t seq = 0;  // 1-based submission index (== TicketId in the recording service).
  std::string name;
  PlanFingerprint fingerprint;
  uint64_t arrival_cycles = 0;  // Service clock at submission.
  uint32_t weight = 1;
  uint64_t deadline_cycles = 0;
  TraceOutcome outcome = TraceOutcome::kAdmitted;
  std::vector<LiteralBinding> literals;  // Full binding vector in fingerprint walk order.

  // Observed completion (valid when `completed`; rejected queries never complete).
  bool completed = false;
  uint8_t status = 0;  // TicketStatus of the finished ticket (kDone or kTimedOut).
  bool cache_hit = false;
  uint8_t tier = 0;  // PlanTier the executed code was compiled at.
  uint64_t patched_sites = 0;
  uint64_t compile_cycles = 0;
  uint64_t execute_cycles = 0;
  uint64_t completed_at_cycles = 0;
  uint64_t result_rows = 0;
  uint64_t samples = 0;
  uint64_t stream_hash = 0;  // FNV-1a of the WriteSamples() text; 0 when timed out.
};

// One plan family's recorded aggregate, diffed per fingerprint by the ReplayReport.
struct TraceFingerprintSummary {
  uint64_t structure = 0;
  std::string name;
  uint64_t executions = 0;
  uint64_t execute_cycles = 0;
  uint64_t latency_p50 = 0;  // Window-rollup quantiles (simulated cycles).
  uint64_t latency_p95 = 0;
  uint64_t latency_max = 0;
  std::string top_operator;  // Label of the hottest operator by cumulative samples.
  uint64_t top_operator_samples = 0;
};

// Fleet-level observations of the recorded run.
struct TraceSummary {
  uint64_t queries = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  uint64_t service_cycles = 0;  // ServiceNowCycles() after the last drain.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t patched_hits = 0;
  uint64_t tier_swaps = 0;
  uint64_t samples = 0;
  uint64_t stream_hash = 0;  // FNV chain over per-query stream hashes in seq order.
  TierTimelineTotals tiers;
  std::vector<TraceFingerprintSummary> fingerprints;  // Ascending by structure.
};

// One plan template: the first-seen finalized plan of a structural fingerprint, serialized.
struct PlanTemplate {
  uint64_t structure = 0;
  std::string name;
  std::string plan_text;  // src/replay/plan_codec block (ends with "endplan\n").
};

// The recorded event schedule. Query events reference `WorkloadTrace::queries` by seq; drain
// events mark where the recording client called QueryService::Drain().
struct TraceEvent {
  enum class Kind : uint8_t { kQuery, kDone, kDrain };
  Kind kind = Kind::kQuery;
  uint32_t seq = 0;  // Query/done: submission index. Drain: submissions seen so far.
};

struct WorkloadTrace {
  uint64_t catalog_version = 0;
  uint64_t start_cycles = 0;  // Service clock when recording began (0 for a fresh service).
  ServiceConfig knobs;        // Knob-table fields only (CaptureKnobs); the rest are defaults.
  std::vector<PlanTemplate> templates;  // Ascending by structure (first-seen plan each).
  std::vector<TraceQuery> queries;      // Submission order; queries[i].seq == i + 1.
  std::vector<TraceEvent> events;       // Chronological submit/complete/drain schedule.
  TraceSummary summary;

  const TraceQuery& query(uint32_t seq) const { return queries[seq - 1]; }
  const PlanTemplate* FindTemplate(uint64_t structure) const;
};

// Line-oriented text format:
//   # dfp trace v6
//   catalog <version>
//   start <cycles>
//   knobs <path>=<value> ...  (every ForEachKnob row, in table order; integers, flags and enums
//                              in decimal, doubles as 16-hex IEEE-754 bit patterns)
//   template <structure-hex> <name-token>
//   <plan codec block ... endplan>
//   query <seq> <name-token> <structure-hex> <literals-hex> <pinned-hex> <arrival> <weight>
//         <deadline> <admitted|rejected> <nbindings> (V <value> | P <pattern-token> | M <limit>)*
//   done <seq> <status> <hit> <tier> <patched> <compile> <execute> <completed> <rows> <samples>
//        <streamhash-hex>
//   drain <submissions-so-far>
//   summary <totals...>
//   tiers <samples> <baseline> <optimized> <transitions> <swapped>
//   fp <structure-hex> <execs> <cycles> <p50> <p95> <max> <topsamples> <top-token> <name-token>
//   end
// Name tokens are percent-encoded (src/replay/plan_codec.h); hashes and fingerprints are 16
// lowercase hex digits. The reader refuses any header but v6 and throws dfp::Error on
// truncation, malformed lines, or a `knobs` line CheckServiceConfig refuses.
void WriteTrace(const WorkloadTrace& trace, std::ostream& out);
std::string EncodeTraceText(const WorkloadTrace& trace);

// Inverse of WriteTrace. Plan templates stay text: the replayer resolves their table
// references against its own database and enforces the catalog version.
WorkloadTrace ReadTrace(std::istream& in);

}  // namespace dfp

#endif  // DFP_SRC_REPLAY_TRACE_H_
