#include "src/replay/trace.h"

#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "src/engine/parallel.h"
#include "src/pmu/event.h"
#include "src/profiling/session.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

constexpr const char* kTraceHeader = "# dfp trace v6";

// Knob value codec: integers, flags and enums in decimal (range-checked on read), doubles as
// 16-hex IEEE-754 bit patterns so they round-trip bit for bit.
constexpr uint64_t KnobMax(SchedulerPolicy) {
  return static_cast<uint64_t>(SchedulerPolicy::kWorkStealing);
}
constexpr uint64_t KnobMax(PmuEvent) { return static_cast<uint64_t>(PmuEvent::kEventCount) - 1; }
constexpr uint64_t KnobMax(AttributionMode) {
  return static_cast<uint64_t>(AttributionMode::kCallStack);
}
template <typename T>
constexpr uint64_t KnobMax(T) {
  return std::numeric_limits<T>::max();
}

template <typename T>
std::string FormatKnob(T value) {
  if constexpr (std::is_same_v<T, double>) {
    return Hex16(DoubleBits(value));
  } else {
    return std::to_string(static_cast<uint64_t>(value));
  }
}

template <typename T>
void ParseKnob(const LineReader& reader, std::string_view text, T& value) {
  if constexpr (std::is_same_v<T, double>) {
    value = BitsToDouble(reader.Hex(text));
  } else {
    const uint64_t parsed = reader.Parse<uint64_t>(text);
    if (parsed > KnobMax(value)) {
      reader.Reject();
    }
    value = static_cast<T>(parsed);
  }
}

template <typename T>
bool SameKnob(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, double>) {
    return DoubleBits(a) == DoubleBits(b);
  } else {
    return a == b;
  }
}

}  // namespace

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

ServiceConfig CaptureKnobs(const ServiceConfig& config) {
  ServiceConfig knobs;
  ForEachKnob([&](const char*, auto field) { field(knobs) = field(config); });
  return knobs;
}

bool KnobsEqual(const ServiceConfig& a, const ServiceConfig& b) {
  bool equal = true;
  ForEachKnob([&](const char*, auto field) { equal = equal && SameKnob(field(a), field(b)); });
  return equal;
}

const PlanTemplate* WorkloadTrace::FindTemplate(uint64_t structure) const {
  for (const PlanTemplate& entry : templates) {
    if (entry.structure == structure) {
      return &entry;
    }
  }
  return nullptr;
}

void WriteTrace(const WorkloadTrace& trace, std::ostream& out) {
  out << kTraceHeader << "\n";
  out << "catalog " << trace.catalog_version << "\n";
  out << "start " << trace.start_cycles << "\n";
  out << "knobs";
  ForEachKnob([&](const char* name, auto field) {
    out << " " << name << "=" << FormatKnob(field(trace.knobs));
  });
  out << "\n";
  for (const PlanTemplate& entry : trace.templates) {
    out << "template " << Hex16(entry.structure) << " " << EncodeToken(entry.name) << "\n";
    out << entry.plan_text;  // Self-delimiting: ends with "endplan\n".
  }
  for (const TraceEvent& event : trace.events) {
    switch (event.kind) {
      case TraceEvent::Kind::kQuery: {
        const TraceQuery& q = trace.query(event.seq);
        out << "query " << q.seq << " " << EncodeToken(q.name) << " "
            << Hex16(q.fingerprint.structure) << " " << Hex16(q.fingerprint.literals) << " "
            << Hex16(q.fingerprint.pinned) << " " << q.arrival_cycles << " " << q.weight << " "
            << q.deadline_cycles << " "
            << (q.outcome == TraceOutcome::kAdmitted ? "admitted" : "rejected") << " "
            << q.literals.size();
        for (const LiteralBinding& binding : q.literals) {
          switch (binding.kind) {
            case LiteralBinding::Kind::kValue:
              out << " V " << binding.value;
              break;
            case LiteralBinding::Kind::kPattern:
              out << " P " << EncodeToken(binding.pattern);
              break;
            case LiteralBinding::Kind::kLimit:
              out << " M " << binding.value;
              break;
          }
        }
        out << "\n";
        break;
      }
      case TraceEvent::Kind::kDone: {
        const TraceQuery& q = trace.query(event.seq);
        out << "done " << q.seq << " " << static_cast<int>(q.status) << " "
            << (q.cache_hit ? 1 : 0) << " " << static_cast<int>(q.tier) << " " << q.patched_sites
            << " " << q.compile_cycles << " " << q.execute_cycles << " " << q.completed_at_cycles
            << " " << q.result_rows << " " << q.samples << " " << Hex16(q.stream_hash) << "\n";
        break;
      }
      case TraceEvent::Kind::kDrain:
        out << "drain " << event.seq << "\n";
        break;
    }
  }
  const TraceSummary& s = trace.summary;
  out << "summary " << s.queries << " " << s.completed << " " << s.rejected << " " << s.timed_out
      << " " << s.service_cycles << " " << s.cache_hits << " " << s.cache_misses << " "
      << s.patched_hits << " " << s.tier_swaps << " " << s.samples << " "
      << Hex16(s.stream_hash) << "\n";
  out << "tiers " << s.tiers.samples << " " << s.tiers.baseline_samples << " "
      << s.tiers.optimized_samples << " " << s.tiers.transitions << " " << s.tiers.swapped
      << "\n";
  for (const TraceFingerprintSummary& fp : s.fingerprints) {
    out << "fp " << Hex16(fp.structure) << " " << fp.executions << " " << fp.execute_cycles
        << " " << fp.latency_p50 << " " << fp.latency_p95 << " " << fp.latency_max << " "
        << fp.top_operator_samples << " " << EncodeToken(fp.top_operator) << " "
        << EncodeToken(fp.name) << "\n";
  }
  out << "end\n";
}

std::string EncodeTraceText(const WorkloadTrace& trace) {
  std::ostringstream out;
  WriteTrace(trace, out);
  return out.str();
}

WorkloadTrace ReadTrace(std::istream& in) {
  LineReader reader(in, "trace");
  reader.ExpectHeader(kTraceHeader);
  WorkloadTrace trace;
  reader.Expect("catalog", "'catalog' line");
  reader.Fields(trace.catalog_version);
  reader.End();
  reader.Expect("start", "'start' line");
  reader.Fields(trace.start_cycles);
  reader.End();
  // Every table row, in table order, as <path>=<value>.
  reader.Expect("knobs", "'knobs' line");
  ForEachKnob([&](const char* name, auto field) {
    const std::string_view token = reader.Word();
    const size_t length = std::string_view(name).size();
    if (token.size() <= length || token.substr(0, length) != name || token[length] != '=') {
      reader.Reject();
    }
    ParseKnob(reader, token.substr(length + 1), field(trace.knobs));
  });
  reader.End();
  CheckServiceConfig(trace.knobs);

  // Body: templates, then the event schedule, then the summary block. The writer emits them in
  // that order; the reader accepts each keyword wherever it appears so the fixed-point property
  // is a statement about the writer's canonical order, not a parser restriction.
  bool saw_summary = false;
  bool saw_tiers = false;
  bool saw_end = false;
  while (reader.Next()) {
    const std::string_view keyword = reader.Word();
    if (keyword == "template") {
      PlanTemplate entry;
      entry.structure = reader.Hex();
      entry.name = reader.Token();
      reader.End();
      // Consume the plan block verbatim (it is validated against the catalog at replay time —
      // a trace file alone has no Database to resolve tables against).
      bool terminated = false;
      while (reader.Next()) {
        entry.plan_text += reader.line();
        entry.plan_text += "\n";
        if (reader.line() == "endplan") {
          terminated = true;
          break;
        }
        const std::string_view plan_keyword = reader.Word();
        if (plan_keyword != "op" && plan_keyword != "x") {
          reader.Reject();
        }
      }
      if (!terminated) {
        throw Error("truncated trace: template plan block missing 'endplan'");
      }
      trace.templates.push_back(std::move(entry));
    } else if (keyword == "query") {
      TraceQuery q;
      q.seq = reader.Read<uint32_t>();
      q.name = reader.Token();
      q.fingerprint.structure = reader.Hex();
      q.fingerprint.literals = reader.Hex();
      q.fingerprint.pinned = reader.Hex();
      reader.Fields(q.arrival_cycles, q.weight, q.deadline_cycles);
      static constexpr const char* kOutcomes[] = {"admitted", "rejected"};
      q.outcome = static_cast<TraceOutcome>(reader.Name(kOutcomes));
      // The binding count comes from the input: read one at a time, never reserved up front.
      const uint64_t bindings = reader.Read<uint64_t>();
      for (uint64_t i = 0; i < bindings; ++i) {
        static constexpr const char* kKinds[] = {"V", "P", "M"};
        LiteralBinding binding;
        binding.kind = static_cast<LiteralBinding::Kind>(reader.Name(kKinds));
        if (binding.kind == LiteralBinding::Kind::kPattern) {
          binding.pattern = reader.Token();
        } else {
          binding.value = reader.Read<int64_t>();
        }
        q.literals.push_back(std::move(binding));
      }
      reader.End();
      if (q.seq != trace.queries.size() + 1) {
        throw Error("trace query out of order: seq " + std::to_string(q.seq) + " expected " +
                    std::to_string(trace.queries.size() + 1));
      }
      trace.events.push_back({TraceEvent::Kind::kQuery, q.seq});
      trace.queries.push_back(std::move(q));
    } else if (keyword == "done") {
      const uint32_t seq = reader.Read<uint32_t>();
      if (seq == 0 || seq > trace.queries.size()) {
        throw Error("trace 'done' references unknown query seq " + std::to_string(seq));
      }
      TraceQuery& q = trace.queries[seq - 1];
      q.status = static_cast<uint8_t>(reader.Enum(TicketStatus::kTimedOut));
      q.cache_hit = reader.Flag();
      q.tier = static_cast<uint8_t>(reader.Enum(PlanTier::kBaseline));
      reader.Fields(q.patched_sites, q.compile_cycles, q.execute_cycles, q.completed_at_cycles,
                    q.result_rows, q.samples);
      q.stream_hash = reader.Hex();
      reader.End();
      q.completed = true;
      trace.events.push_back({TraceEvent::Kind::kDone, seq});
    } else if (keyword == "drain") {
      TraceEvent event;
      event.kind = TraceEvent::Kind::kDrain;
      reader.Fields(event.seq);
      reader.End();
      trace.events.push_back(event);
    } else if (keyword == "summary") {
      TraceSummary& s = trace.summary;
      reader.Fields(s.queries, s.completed, s.rejected, s.timed_out, s.service_cycles,
                    s.cache_hits, s.cache_misses, s.patched_hits, s.tier_swaps, s.samples);
      s.stream_hash = reader.Hex();
      reader.End();
      saw_summary = true;
    } else if (keyword == "tiers") {
      TierTimelineTotals& t = trace.summary.tiers;
      reader.Fields(t.samples, t.baseline_samples, t.optimized_samples, t.transitions,
                    t.swapped);
      reader.End();
      saw_tiers = true;
    } else if (keyword == "fp") {
      TraceFingerprintSummary fp;
      fp.structure = reader.Hex();
      reader.Fields(fp.executions, fp.execute_cycles, fp.latency_p50, fp.latency_p95,
                    fp.latency_max, fp.top_operator_samples);
      fp.top_operator = reader.Token();
      fp.name = reader.Token();
      reader.End();
      trace.summary.fingerprints.push_back(std::move(fp));
    } else if (keyword == "end") {
      reader.End();
      saw_end = true;
      break;
    } else {
      reader.Reject();
    }
  }
  if (!saw_end) {
    throw Error("truncated trace: 'end' marker missing");
  }
  if (!saw_summary || !saw_tiers) {
    throw Error("truncated trace: summary block missing");
  }
  if (trace.summary.queries != trace.queries.size()) {
    throw Error("trace summary query count " + std::to_string(trace.summary.queries) +
                " does not match recorded queries " + std::to_string(trace.queries.size()));
  }
  return trace;
}

}  // namespace dfp
