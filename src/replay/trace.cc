#include "src/replay/trace.h"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "src/engine/parallel.h"
#include "src/pmu/event.h"
#include "src/profiling/session.h"
#include "src/replay/plan_codec.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

constexpr const char* kTraceHeader = "# dfp trace v6";

[[noreturn]] void Malformed(const std::string& line) {
  throw Error("malformed trace line: '" + line + "'");
}

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
void ParseKnob(const std::string& text, T& value, const std::string& line) {
  if constexpr (std::is_same_v<T, double>) {
    value = BitsToDouble(ParseHex16(text));
  } else {
    uint64_t parsed = 0;
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (error != std::errc() || end != text.data() + text.size() || parsed > KnobMax(value)) {
      Malformed(line);
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

// Reads the next line, requiring its first token to be `keyword`; returns a stream positioned
// after the keyword.
std::istringstream ExpectLine(std::istream& in, const std::string& keyword, std::string& line) {
  if (!std::getline(in, line)) {
    throw Error("truncated trace: '" + keyword + "' line expected");
  }
  std::istringstream stream(line);
  std::string token;
  stream >> token;
  if (token != keyword) {
    Malformed(line);
  }
  return stream;
}

void RejectTrailing(std::istringstream& stream, const std::string& line) {
  std::string trailing;
  if (stream >> trailing) {
    Malformed(line);
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
  ExpectHeader(in, kTraceHeader);
  WorkloadTrace trace;
  std::string line;
  {
    std::istringstream stream = ExpectLine(in, "catalog", line);
    if (!(stream >> trace.catalog_version)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
  }
  {
    std::istringstream stream = ExpectLine(in, "start", line);
    if (!(stream >> trace.start_cycles)) {
      Malformed(line);
    }
    RejectTrailing(stream, line);
  }
  {
    // Every table row, in table order, as <path>=<value>.
    std::istringstream stream = ExpectLine(in, "knobs", line);
    ForEachKnob([&](const char* name, auto field) {
      const std::string prefix = std::string(name) + "=";
      std::string token;
      if (!(stream >> token) || token.compare(0, prefix.size(), prefix) != 0) {
        Malformed(line);
      }
      ParseKnob(token.substr(prefix.size()), field(trace.knobs), line);
    });
    RejectTrailing(stream, line);
    CheckServiceConfig(trace.knobs);
  }

  // Body: templates, then the event schedule, then the summary block. The writer emits them in
  // that order; the reader accepts each keyword wherever it appears so the fixed-point property
  // is a statement about the writer's canonical order, not a parser restriction.
  bool saw_summary = false;
  bool saw_tiers = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    std::istringstream stream(line);
    std::string keyword;
    stream >> keyword;
    if (keyword == "template") {
      PlanTemplate entry;
      std::string structure_hex;
      std::string name_token;
      if (!(stream >> structure_hex >> name_token)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      entry.structure = ParseHex16(structure_hex);
      entry.name = DecodeToken(name_token);
      // Consume the plan block verbatim (it is validated against the catalog at replay time —
      // a trace file alone has no Database to resolve tables against).
      std::string plan_line;
      bool terminated = false;
      while (std::getline(in, plan_line)) {
        entry.plan_text += plan_line;
        entry.plan_text += "\n";
        if (plan_line == "endplan") {
          terminated = true;
          break;
        }
        if (plan_line.rfind("op ", 0) != 0 && plan_line.rfind("x ", 0) != 0) {
          Malformed(plan_line);
        }
      }
      if (!terminated) {
        throw Error("truncated trace: template plan block missing 'endplan'");
      }
      trace.templates.push_back(std::move(entry));
    } else if (keyword == "query") {
      TraceQuery q;
      std::string name_token;
      std::string structure_hex;
      std::string literals_hex;
      std::string pinned_hex;
      std::string outcome_token;
      size_t bindings = 0;
      if (!(stream >> q.seq >> name_token >> structure_hex >> literals_hex >> pinned_hex >>
            q.arrival_cycles >> q.weight >> q.deadline_cycles >> outcome_token >> bindings)) {
        Malformed(line);
      }
      q.name = DecodeToken(name_token);
      q.fingerprint.structure = ParseHex16(structure_hex);
      q.fingerprint.literals = ParseHex16(literals_hex);
      q.fingerprint.pinned = ParseHex16(pinned_hex);
      if (outcome_token == "admitted") {
        q.outcome = TraceOutcome::kAdmitted;
      } else if (outcome_token == "rejected") {
        q.outcome = TraceOutcome::kRejected;
      } else {
        Malformed(line);
      }
      // `bindings` comes from the input: read one at a time, never reserved up front.
      for (size_t i = 0; i < bindings; ++i) {
        std::string kind_token;
        if (!(stream >> kind_token)) {
          Malformed(line);
        }
        LiteralBinding binding;
        if (kind_token == "V") {
          binding.kind = LiteralBinding::Kind::kValue;
          if (!(stream >> binding.value)) {
            Malformed(line);
          }
        } else if (kind_token == "P") {
          binding.kind = LiteralBinding::Kind::kPattern;
          std::string pattern_token;
          if (!(stream >> pattern_token)) {
            Malformed(line);
          }
          binding.pattern = DecodeToken(pattern_token);
        } else if (kind_token == "M") {
          binding.kind = LiteralBinding::Kind::kLimit;
          if (!(stream >> binding.value)) {
            Malformed(line);
          }
        } else {
          Malformed(line);
        }
        q.literals.push_back(std::move(binding));
      }
      RejectTrailing(stream, line);
      if (q.seq != trace.queries.size() + 1) {
        throw Error("trace query out of order: seq " + std::to_string(q.seq) + " expected " +
                    std::to_string(trace.queries.size() + 1));
      }
      trace.events.push_back({TraceEvent::Kind::kQuery, q.seq});
      trace.queries.push_back(std::move(q));
    } else if (keyword == "done") {
      uint32_t seq = 0;
      int status = 0;
      int hit = 0;
      int tier = 0;
      std::string hash_hex;
      if (!(stream >> seq)) {
        Malformed(line);
      }
      if (seq == 0 || seq > trace.queries.size()) {
        throw Error("trace 'done' references unknown query seq " + std::to_string(seq));
      }
      TraceQuery& q = trace.queries[seq - 1];
      if (!(stream >> status >> hit >> tier >> q.patched_sites >> q.compile_cycles >>
            q.execute_cycles >> q.completed_at_cycles >> q.result_rows >> q.samples >>
            hash_hex) ||
          status < 0 || status > static_cast<int>(TicketStatus::kTimedOut) || hit < 0 ||
          hit > 1 || tier < 0 || tier > 1) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      q.completed = true;
      q.status = static_cast<uint8_t>(status);
      q.cache_hit = hit != 0;
      q.tier = static_cast<uint8_t>(tier);
      q.stream_hash = ParseHex16(hash_hex);
      trace.events.push_back({TraceEvent::Kind::kDone, seq});
    } else if (keyword == "drain") {
      TraceEvent event;
      event.kind = TraceEvent::Kind::kDrain;
      if (!(stream >> event.seq)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      trace.events.push_back(event);
    } else if (keyword == "summary") {
      TraceSummary& s = trace.summary;
      std::string hash_hex;
      if (!(stream >> s.queries >> s.completed >> s.rejected >> s.timed_out >>
            s.service_cycles >> s.cache_hits >> s.cache_misses >> s.patched_hits >>
            s.tier_swaps >> s.samples >> hash_hex)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      s.stream_hash = ParseHex16(hash_hex);
      saw_summary = true;
    } else if (keyword == "tiers") {
      TierTimelineTotals& t = trace.summary.tiers;
      if (!(stream >> t.samples >> t.baseline_samples >> t.optimized_samples >> t.transitions >>
            t.swapped)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      saw_tiers = true;
    } else if (keyword == "fp") {
      TraceFingerprintSummary fp;
      std::string structure_hex;
      std::string top_token;
      std::string name_token;
      if (!(stream >> structure_hex >> fp.executions >> fp.execute_cycles >> fp.latency_p50 >>
            fp.latency_p95 >> fp.latency_max >> fp.top_operator_samples >> top_token >>
            name_token)) {
        Malformed(line);
      }
      RejectTrailing(stream, line);
      fp.structure = ParseHex16(structure_hex);
      fp.top_operator = DecodeToken(top_token);
      fp.name = DecodeToken(name_token);
      trace.summary.fingerprints.push_back(std::move(fp));
    } else if (keyword == "end") {
      RejectTrailing(stream, line);
      saw_end = true;
      break;
    } else {
      Malformed(line);
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
