#include "src/replay/replayer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "src/replay/plan_codec.h"
#include "src/replay/recorder.h"
#include "src/service/service_profile.h"
#include "src/shard/coordinator.h"
#include "src/tiering/report.h"
#include "src/util/check.h"
#include "src/util/str.h"

namespace dfp {
namespace {

// Clears every default-derived cardinality estimate so FinalizePlan re-derives it from the
// recomputed row bounds: after re-binding literals — which can change a LIMIT and therefore
// the bounds — this reproduces exactly the estimates a freshly built plan would carry.
// Estimates that differ from the operator's bound were set by hand (the SQL binder's join
// ordering, a test's scenario) and were serialized bit-exactly by the plan codec; those must
// survive, because re-finalizing resets only zeroes (FinalizePlan fills estimated_rows only
// when it is 0) and morsel sizing (ResolveMorselRows) reads the estimate the recording ran
// with. Zeroing unconditionally would silently diverge the execution schedule of any template
// whose recorded plan carried non-default estimates.
void ResetEstimates(PhysicalOp& op) {
  if (op.estimated_rows == static_cast<double>(op.bound_rows)) {
    op.estimated_rows = 0;
  }
  for (auto& child : op.children) {
    ResetEstimates(*child);
  }
}

// Parsed plan templates by structure: one parse per database the replay submits to (one, or
// one per shard).
using PlanTemplates = std::map<uint64_t, std::vector<PhysicalOpPtr>>;

// Rebuilds the plans of one submission of trace query `q`, one per parsed template of its
// structure: a clone bound to the recorded literals, its default estimates re-derived. Throws
// dfp::Error when the trace has no template for the structure, or when the first rebuilt plan's
// fingerprint is not the recorded one.
std::vector<PhysicalOpPtr> RebuildPlans(const PlanTemplates& templates, const TraceQuery& q,
                                        uint64_t catalog_version) {
  auto it = templates.find(q.fingerprint.structure);
  if (it == templates.end()) {
    throw Error("trace query " + std::to_string(q.seq) +
                " references a structure with no plan template");
  }
  std::vector<PhysicalOpPtr> plans;
  plans.reserve(it->second.size());
  for (const PhysicalOpPtr& plan_template : it->second) {
    PhysicalOpPtr plan = ClonePlan(*plan_template);
    BindLiterals(*plan, q.literals);
    ResetEstimates(*plan);
    FinalizePlan(*plan);
    plans.push_back(std::move(plan));
  }
  const PlanFingerprint rebuilt = FingerprintPlan(*plans[0], catalog_version);
  if (rebuilt.structure != q.fingerprint.structure ||
      rebuilt.literals != q.fingerprint.literals || rebuilt.pinned != q.fingerprint.pinned) {
    throw Error("replayed plan fingerprint mismatch for trace query " + std::to_string(q.seq) +
                " (" + q.name + "): corrupt trace or incompatible build");
  }
  return plans;
}

void AppendJsonString(const std::string& text, std::ostream& out) {
  out << '"';
  for (unsigned char c : text) {
    if (c == '"' || c == '\\') {
      out << '\\' << static_cast<char>(c);
    } else if (c < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out << buffer;
    } else {
      out << static_cast<char>(c);
    }
  }
  out << '"';
}

bool TiersEqual(const TierTimelineTotals& a, const TierTimelineTotals& b) {
  return a.samples == b.samples && a.baseline_samples == b.baseline_samples &&
         a.optimized_samples == b.optimized_samples && a.transitions == b.transitions &&
         a.swapped == b.swapped;
}

bool QueryDiverged(const TraceQuery& a, const TraceQuery& b) {
  return a.name != b.name || a.fingerprint.structure != b.fingerprint.structure ||
         a.fingerprint.literals != b.fingerprint.literals ||
         a.fingerprint.pinned != b.fingerprint.pinned || a.arrival_cycles != b.arrival_cycles ||
         a.weight != b.weight || a.deadline_cycles != b.deadline_cycles ||
         a.outcome != b.outcome || a.completed != b.completed || a.status != b.status ||
         a.cache_hit != b.cache_hit || a.tier != b.tier || a.patched_sites != b.patched_sites ||
         a.compile_cycles != b.compile_cycles || a.execute_cycles != b.execute_cycles ||
         a.completed_at_cycles != b.completed_at_cycles || a.result_rows != b.result_rows ||
         a.samples != b.samples || a.stream_hash != b.stream_hash;
}

// Sharded replay: the recorded traffic re-runs against an N-shard ShardedService. The
// coordinator owns the sub-tickets (one per shard for fan-out queries), so there is no single
// TraceRecorder to capture the run; the replayed trace is assembled by hand — the submission
// half copied from the recording, the completion half observed from coordinator tickets.
// Streams and samples are deliberately left zero (a sharded run's streams carry shard tokens
// and cannot match the recording byte-wise anyway); the gate is results_diverged == 0.
ReplayRun ReplayTraceSharded(ShardCatalog& catalog, const WorkloadTrace& trace,
                             const ServiceConfig& service_config, uint32_t multiplier) {
  if (catalog.catalog_version() != trace.catalog_version) {
    throw Error(StrFormat("replay catalog mismatch: trace recorded at catalog version %llu, "
                          "shard catalog is at %llu",
                          static_cast<unsigned long long>(trace.catalog_version),
                          static_cast<unsigned long long>(catalog.catalog_version())));
  }
  // Parse every plan template once per shard, template-major: every shard heap interns the
  // same literal strings in the same order, preserving the cross-shard reference alignment
  // (src/shard/partition.h). A structure's first template wins, as in the unsharded replay.
  PlanTemplates templates;
  for (const PlanTemplate& entry : trace.templates) {
    std::vector<PhysicalOpPtr> per_shard;
    for (uint32_t s = 0; s < catalog.shards(); ++s) {
      per_shard.push_back(ParsePlanText(entry.plan_text, catalog.db(s)));
    }
    templates.emplace(entry.structure, std::move(per_shard));
  }

  ShardServiceConfig config;
  config.service = service_config;
  config.merge_sampling = DefaultMergeSampling();
  ShardedService service(catalog, config);

  std::vector<uint32_t> submitted_seq;  // Recorded seq of each coordinator ticket, in order.
  for (const TraceEvent& event : trace.events) {
    switch (event.kind) {
      case TraceEvent::Kind::kQuery: {
        const TraceQuery& q = trace.query(event.seq);
        for (uint32_t copy = 0; copy < multiplier; ++copy) {
          service.SubmitPlans(q.name, RebuildPlans(templates, q, catalog.catalog_version()),
                              q.deadline_cycles, q.weight);
          submitted_seq.push_back(q.seq);
        }
        break;
      }
      case TraceEvent::Kind::kDone:
        break;
      case TraceEvent::Kind::kDrain:
        service.Drain();
        break;
    }
  }
  service.Drain();  // Idempotent; resolves anything a truncated trace left pending.

  ReplayRun run;
  run.trace.catalog_version = trace.catalog_version;
  run.trace.start_cycles = 0;
  run.trace.knobs = service_config;
  for (TicketId id = 1; id <= service.ticket_count(); ++id) {
    const ShardTicket& ticket = service.ticket(id);
    const TraceQuery& recorded = trace.query(submitted_seq[id - 1]);
    TraceQuery replayed;
    replayed.seq = id;
    replayed.name = recorded.name;
    replayed.fingerprint = recorded.fingerprint;
    replayed.arrival_cycles = recorded.arrival_cycles;
    replayed.weight = recorded.weight;
    replayed.deadline_cycles = recorded.deadline_cycles;
    replayed.outcome = ticket.status == TicketStatus::kRejected ? TraceOutcome::kRejected
                                                                : TraceOutcome::kAdmitted;
    replayed.literals = recorded.literals;
    replayed.completed =
        ticket.status == TicketStatus::kDone || ticket.status == TicketStatus::kTimedOut;
    replayed.status = static_cast<uint8_t>(ticket.status);
    replayed.compile_cycles = ticket.compile_cycles;
    replayed.execute_cycles = ticket.execute_cycles;
    if (ticket.status == TicketStatus::kDone) {
      replayed.result_rows = ticket.result.row_count();
    }
    run.trace.queries.push_back(std::move(replayed));
    run.trace.events.push_back({TraceEvent::Kind::kQuery, id});
  }
  run.trace.events.push_back(
      {TraceEvent::Kind::kDrain, static_cast<uint32_t>(service.ticket_count())});

  TraceSummary& summary = run.trace.summary;
  summary.queries = service.ticket_count();
  uint64_t service_cycles = 0;
  for (uint32_t s = 0; s < service.shards(); ++s) {
    service_cycles = std::max(service_cycles, service.shard(s).ServiceNowCycles());
  }
  summary.service_cycles = service_cycles;
  for (const TraceQuery& q : run.trace.queries) {
    if (q.completed && q.status == static_cast<uint8_t>(TicketStatus::kDone)) {
      ++summary.completed;
    } else if (q.outcome == TraceOutcome::kRejected) {
      ++summary.rejected;
    } else if (q.status == static_cast<uint8_t>(TicketStatus::kTimedOut)) {
      ++summary.timed_out;
    }
  }

  run.service_profile_text = RenderFleetAggregate(service.AggregateFleet());
  return run;
}

}  // namespace

ReplayRun ReplayTrace(Database& db, const WorkloadTrace& trace, const ReplayOptions& options) {
  const ServiceConfig config = CaptureKnobs(options.config.value_or(trace.knobs));
  const uint32_t multiplier = std::max<uint32_t>(1, options.session_multiplier);
  if (options.shards != nullptr) {
    return ReplayTraceSharded(*options.shards, trace, config, multiplier);
  }
  if (db.catalog_version() != trace.catalog_version) {
    throw Error(StrFormat("replay catalog mismatch: trace recorded at catalog version %llu, "
                          "database is at %llu",
                          static_cast<unsigned long long>(trace.catalog_version),
                          static_cast<unsigned long long>(db.catalog_version())));
  }
  // Parse every plan template once; clones are cut per submission.
  PlanTemplates templates;
  for (const PlanTemplate& entry : trace.templates) {
    std::vector<PhysicalOpPtr> parsed;
    parsed.push_back(ParsePlanText(entry.plan_text, db));
    templates.emplace(entry.structure, std::move(parsed));
  }

  QueryService service(db, config);
  TraceRecorder recorder;
  service.AttachRecorder(recorder);

  for (const TraceEvent& event : trace.events) {
    switch (event.kind) {
      case TraceEvent::Kind::kQuery: {
        const TraceQuery& q = trace.query(event.seq);
        for (uint32_t copy = 0; copy < multiplier; ++copy) {
          service.Submit(std::move(RebuildPlans(templates, q, db.catalog_version())[0]), q.name,
                         q.deadline_cycles, q.weight);
        }
        break;
      }
      case TraceEvent::Kind::kDone:
        break;  // Completions happen inside Drain; the recorder logs them afresh.
      case TraceEvent::Kind::kDrain:
        service.Drain();
        break;
    }
  }
  // A well-formed recording ends drained (its last event is the final Drain); only flush when
  // the trace left submissions pending, so the replayed event schedule stays byte-identical to
  // the recorded one on the zero-diff path.
  bool pending = false;
  for (TicketId id = 1; id <= service.ticket_count(); ++id) {
    const TicketStatus status = service.ticket(id).status;
    if (status == TicketStatus::kQueued || status == TicketStatus::kRunning) {
      pending = true;
      break;
    }
  }
  if (pending) {
    service.Drain();
  }

  recorder.Finish(service);
  ReplayRun run;
  run.trace = recorder.trace();
  std::ostringstream profile;
  WriteServiceProfile(service.fleet_profile(), service.windows(), profile);
  run.service_profile_text = profile.str();
  run.tier_timeline_text = RenderTierTimeline(service.windows(), service.tier_controller());
  return run;
}

bool ReplayFingerprintDiff::identical() const {
  return recorded_executions == replayed_executions &&
         recorded_execute_cycles == replayed_execute_cycles && recorded_p50 == replayed_p50 &&
         recorded_p95 == replayed_p95 && recorded_max == replayed_max &&
         recorded_top_operator == replayed_top_operator &&
         recorded_top_samples == replayed_top_samples;
}

ReplayReport DiffTraces(const WorkloadTrace& recorded, const WorkloadTrace& replayed) {
  ReplayReport report;
  report.knobs_identical = KnobsEqual(recorded.knobs, replayed.knobs);
  const TraceSummary& a = recorded.summary;
  const TraceSummary& b = replayed.summary;
  report.recorded_queries = a.queries;
  report.replayed_queries = b.queries;
  report.recorded_completed = a.completed;
  report.replayed_completed = b.completed;
  report.recorded_rejected = a.rejected;
  report.replayed_rejected = b.rejected;
  report.recorded_timed_out = a.timed_out;
  report.replayed_timed_out = b.timed_out;
  report.recorded_cycles = a.service_cycles;
  report.replayed_cycles = b.service_cycles;
  report.recorded_samples = a.samples;
  report.replayed_samples = b.samples;
  report.recorded_cache_hits = a.cache_hits;
  report.replayed_cache_hits = b.cache_hits;
  report.recorded_patched_hits = a.patched_hits;
  report.replayed_patched_hits = b.patched_hits;
  report.recorded_tier_swaps = a.tier_swaps;
  report.replayed_tier_swaps = b.tier_swaps;
  report.streams_identical =
      a.queries == b.queries && a.stream_hash == b.stream_hash && a.samples == b.samples;
  if (recorded.queries.size() == replayed.queries.size()) {
    for (size_t i = 0; i < recorded.queries.size(); ++i) {
      if (QueryDiverged(recorded.queries[i], replayed.queries[i])) {
        ++report.queries_diverged;
        if (recorded.queries[i].result_rows != replayed.queries[i].result_rows) {
          ++report.results_diverged;
        }
      }
    }
  } else {
    report.queries_diverged = std::max(recorded.queries.size(), replayed.queries.size()) -
                              std::min(recorded.queries.size(), replayed.queries.size());
  }
  report.tiers_identical = TiersEqual(a.tiers, b.tiers);

  // Merge the two per-fingerprint summary lists (each ascending by structure).
  size_t i = 0;
  size_t j = 0;
  while (i < a.fingerprints.size() || j < b.fingerprints.size()) {
    ReplayFingerprintDiff diff;
    const bool take_a =
        j >= b.fingerprints.size() ||
        (i < a.fingerprints.size() && a.fingerprints[i].structure <= b.fingerprints[j].structure);
    const bool take_b =
        i >= a.fingerprints.size() ||
        (j < b.fingerprints.size() && b.fingerprints[j].structure <= a.fingerprints[i].structure);
    if (take_a) {
      const TraceFingerprintSummary& fp = a.fingerprints[i++];
      diff.structure = fp.structure;
      diff.name = fp.name;
      diff.recorded_executions = fp.executions;
      diff.recorded_execute_cycles = fp.execute_cycles;
      diff.recorded_p50 = fp.latency_p50;
      diff.recorded_p95 = fp.latency_p95;
      diff.recorded_max = fp.latency_max;
      diff.recorded_top_operator = fp.top_operator;
      diff.recorded_top_samples = fp.top_operator_samples;
    }
    if (take_b) {
      const TraceFingerprintSummary& fp = b.fingerprints[j++];
      diff.structure = fp.structure;
      diff.name = fp.name;
      diff.replayed_executions = fp.executions;
      diff.replayed_execute_cycles = fp.execute_cycles;
      diff.replayed_p50 = fp.latency_p50;
      diff.replayed_p95 = fp.latency_p95;
      diff.replayed_max = fp.latency_max;
      diff.replayed_top_operator = fp.top_operator;
      diff.replayed_top_samples = fp.top_operator_samples;
    }
    report.fingerprints.push_back(std::move(diff));
  }

  bool fingerprints_identical = a.fingerprints.size() == b.fingerprints.size();
  for (const ReplayFingerprintDiff& diff : report.fingerprints) {
    fingerprints_identical = fingerprints_identical && diff.identical();
  }
  report.identical = report.knobs_identical && a.queries == b.queries &&
                     a.completed == b.completed && a.rejected == b.rejected &&
                     a.timed_out == b.timed_out && a.service_cycles == b.service_cycles &&
                     a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
                     a.patched_hits == b.patched_hits && a.tier_swaps == b.tier_swaps &&
                     report.streams_identical && report.queries_diverged == 0 &&
                     report.tiers_identical && fingerprints_identical;
  return report;
}

std::string RenderReplayReport(const ReplayReport& report) {
  std::ostringstream out;
  out << "replay report: " << (report.identical ? "IDENTICAL" : "DIVERGED")
      << (report.knobs_identical ? "" : " (what-if knobs active)") << "\n";
  auto row = [&out](const char* label, uint64_t recorded, uint64_t replayed) {
    out << StrFormat("  %-16s %12llu -> %12llu%s\n", label,
                     static_cast<unsigned long long>(recorded),
                     static_cast<unsigned long long>(replayed),
                     recorded == replayed ? "" : "  *");
  };
  row("queries", report.recorded_queries, report.replayed_queries);
  row("completed", report.recorded_completed, report.replayed_completed);
  row("rejected", report.recorded_rejected, report.replayed_rejected);
  row("timed out", report.recorded_timed_out, report.replayed_timed_out);
  row("service cycles", report.recorded_cycles, report.replayed_cycles);
  row("samples", report.recorded_samples, report.replayed_samples);
  row("cache hits", report.recorded_cache_hits, report.replayed_cache_hits);
  row("patched hits", report.recorded_patched_hits, report.replayed_patched_hits);
  row("tier swaps", report.recorded_tier_swaps, report.replayed_tier_swaps);
  out << "  streams " << (report.streams_identical ? "identical" : "DIVERGED") << ", "
      << report.queries_diverged << " queries diverged (" << report.results_diverged
      << " result rows), tier timeline "
      << (report.tiers_identical ? "identical" : "DIVERGED") << "\n";
  for (const ReplayFingerprintDiff& fp : report.fingerprints) {
    out << StrFormat("  fp %016llx %-10s execs %llu->%llu p50 %llu->%llu p95 %llu->%llu top %s",
                     static_cast<unsigned long long>(fp.structure), fp.name.c_str(),
                     static_cast<unsigned long long>(fp.recorded_executions),
                     static_cast<unsigned long long>(fp.replayed_executions),
                     static_cast<unsigned long long>(fp.recorded_p50),
                     static_cast<unsigned long long>(fp.replayed_p50),
                     static_cast<unsigned long long>(fp.recorded_p95),
                     static_cast<unsigned long long>(fp.replayed_p95),
                     fp.recorded_top_operator.c_str());
    if (fp.replayed_top_operator != fp.recorded_top_operator) {
      out << "->" << fp.replayed_top_operator;
    }
    out << (fp.identical() ? "" : "  *") << "\n";
  }
  return out.str();
}

void WriteReplayReportJson(const ReplayReport& report, std::ostream& out) {
  out << "{\n";
  out << "  \"identical\": " << (report.identical ? "true" : "false") << ",\n";
  out << "  \"knobs_identical\": " << (report.knobs_identical ? "true" : "false") << ",\n";
  out << "  \"session_multiplier\": " << report.session_multiplier << ",\n";
  auto pair = [&out](const char* key, uint64_t recorded, uint64_t replayed) {
    out << "  \"" << key << "\": {\"recorded\": " << recorded << ", \"replayed\": " << replayed
        << "},\n";
  };
  pair("queries", report.recorded_queries, report.replayed_queries);
  pair("completed", report.recorded_completed, report.replayed_completed);
  pair("rejected", report.recorded_rejected, report.replayed_rejected);
  pair("timed_out", report.recorded_timed_out, report.replayed_timed_out);
  pair("service_cycles", report.recorded_cycles, report.replayed_cycles);
  pair("samples", report.recorded_samples, report.replayed_samples);
  pair("cache_hits", report.recorded_cache_hits, report.replayed_cache_hits);
  pair("patched_hits", report.recorded_patched_hits, report.replayed_patched_hits);
  pair("tier_swaps", report.recorded_tier_swaps, report.replayed_tier_swaps);
  out << "  \"streams_identical\": " << (report.streams_identical ? "true" : "false") << ",\n";
  out << "  \"queries_diverged\": " << report.queries_diverged << ",\n";
  out << "  \"results_diverged\": " << report.results_diverged << ",\n";
  out << "  \"tiers_identical\": " << (report.tiers_identical ? "true" : "false") << ",\n";
  out << "  \"fingerprints\": [";
  for (size_t i = 0; i < report.fingerprints.size(); ++i) {
    const ReplayFingerprintDiff& fp = report.fingerprints[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"structure\": ";
    AppendJsonString(StrFormat("%016llx", static_cast<unsigned long long>(fp.structure)), out);
    out << ", \"name\": ";
    AppendJsonString(fp.name, out);
    out << ", \"identical\": " << (fp.identical() ? "true" : "false")
        << ", \"executions\": [" << fp.recorded_executions << ", " << fp.replayed_executions
        << "], \"execute_cycles\": [" << fp.recorded_execute_cycles << ", "
        << fp.replayed_execute_cycles << "], \"p50\": [" << fp.recorded_p50 << ", "
        << fp.replayed_p50 << "], \"p95\": [" << fp.recorded_p95 << ", " << fp.replayed_p95
        << "], \"max\": [" << fp.recorded_max << ", " << fp.replayed_max
        << "], \"top_operator\": [";
    AppendJsonString(fp.recorded_top_operator, out);
    out << ", ";
    AppendJsonString(fp.replayed_top_operator, out);
    out << "], \"top_samples\": [" << fp.recorded_top_samples << ", " << fp.replayed_top_samples
        << "]}";
  }
  out << (report.fingerprints.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
}

}  // namespace dfp
