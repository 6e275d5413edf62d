#include "src/replay/recorder.h"

#include <sstream>

#include "src/profiling/serialize.h"
#include "src/replay/plan_codec.h"
#include "src/tiering/report.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {

void TraceRecorder::OnAttach(const ServiceConfig& config, uint64_t catalog_version,
                             uint64_t now_cycles) {
  if (now_cycles != 0) {
    throw Error("trace recording requires a fresh service: clock already at " +
                std::to_string(now_cycles) + " cycles (replay starts from zero)");
  }
  DFP_CHECK(!attached_);
  attached_ = true;
  trace_.catalog_version = catalog_version;
  trace_.start_cycles = now_cycles;
  trace_.knobs = CaptureKnobs(config);
}

void TraceRecorder::OnSubmit(const QueryTicket& ticket, const PhysicalOp& plan,
                             uint64_t arrival_cycles) {
  DFP_CHECK(attached_);
  DFP_CHECK(ticket.id == trace_.queries.size() + 1);
  TraceQuery q;
  q.seq = ticket.id;
  q.name = ticket.name;
  q.fingerprint = ticket.fingerprint;
  q.arrival_cycles = arrival_cycles;
  q.weight = ticket.weight;
  q.deadline_cycles = ticket.deadline_cycles;
  q.outcome = ticket.status == TicketStatus::kRejected ? TraceOutcome::kRejected
                                                       : TraceOutcome::kAdmitted;
  q.literals = ExtractLiterals(plan).bindings;
  if (trace_.FindTemplate(q.fingerprint.structure) == nullptr) {
    PlanTemplate entry;
    entry.structure = q.fingerprint.structure;
    entry.name = q.name;
    entry.plan_text = EncodePlanText(plan);
    trace_.templates.push_back(std::move(entry));
  }
  trace_.events.push_back({TraceEvent::Kind::kQuery, q.seq});
  trace_.queries.push_back(std::move(q));
}

void TraceRecorder::OnDrain(uint32_t submissions_so_far) {
  DFP_CHECK(attached_);
  trace_.events.push_back({TraceEvent::Kind::kDrain, submissions_so_far});
}

void TraceRecorder::OnCompletion(const QueryTicket& ticket) {
  DFP_CHECK(attached_);
  DFP_CHECK(ticket.id >= 1 && ticket.id <= trace_.queries.size());
  TraceQuery& q = trace_.queries[ticket.id - 1];
  DFP_CHECK(!q.completed);
  q.completed = true;
  q.status = static_cast<uint8_t>(ticket.status);
  q.cache_hit = ticket.cache_hit;
  q.tier = static_cast<uint8_t>(ticket.tier);
  q.patched_sites = ticket.patched_sites;
  q.compile_cycles = ticket.compile_cycles;
  q.execute_cycles = ticket.execute_cycles;
  q.completed_at_cycles = ticket.completed_at_cycles;
  q.result_rows = ticket.result.row_count();
  if (ticket.session != nullptr) {
    std::ostringstream out;
    WriteSamples(ticket.session->samples(), out);
    q.samples = ticket.session->samples().size();
    q.stream_hash = Fnv1a64(out.str());
  }
  trace_.events.push_back({TraceEvent::Kind::kDone, ticket.id});
}

const WorkloadTrace& TraceRecorder::Finish(const QueryService& service) {
  DFP_CHECK(attached_);
  TraceSummary s;
  s.queries = trace_.queries.size();
  std::string chain;
  for (const TraceQuery& q : trace_.queries) {
    if (q.outcome == TraceOutcome::kRejected) {
      ++s.rejected;
    } else if (q.completed && q.status == static_cast<uint8_t>(TicketStatus::kDone)) {
      ++s.completed;
    } else if (q.completed && q.status == static_cast<uint8_t>(TicketStatus::kTimedOut)) {
      ++s.timed_out;
    }
    s.samples += q.samples;
    chain += Hex16(q.stream_hash);
  }
  s.stream_hash = Fnv1a64(chain);
  s.service_cycles = service.ServiceNowCycles();
  const PlanCacheStats& cache = service.plan_cache().stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.patched_hits = cache.patched_hits;
  s.tier_swaps = cache.tier_swaps;
  s.tiers = SummarizeTierTimeline(service.windows(), service.tier_controller());
  for (const auto& [fingerprint, plan] : service.fleet_profile().plans()) {
    TraceFingerprintSummary fp;
    fp.structure = fingerprint;
    fp.name = plan.name;
    fp.executions = plan.executions;
    fp.execute_cycles = plan.execute_cycles;
    for (const auto& [op, cost] : plan.operators) {
      if (cost.samples > fp.top_operator_samples) {  // Map order breaks ties by operator id.
        fp.top_operator_samples = cost.samples;
        fp.top_operator = cost.label;
      }
    }
    const WindowRollup rollup = service.windows().RollUp(fingerprint);
    fp.latency_p50 = rollup.latency_p50;
    fp.latency_p95 = rollup.latency_p95;
    fp.latency_max = rollup.latency_max;
    s.fingerprints.push_back(std::move(fp));
  }
  trace_.summary = std::move(s);
  return trace_;
}

}  // namespace dfp
