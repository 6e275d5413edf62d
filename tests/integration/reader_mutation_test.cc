// Seeded mutation test over dfp's five text readers: the tagging dictionary, the sample stream,
// the service profile, the trace and the plan block.
//
// The seed texts come from the writers, on a small recorded service run. Each seed is mutated
// the ways a corrupted or hand-edited file is (flipped bytes, signs, truncation, dropped and
// duplicated lines and fields, huge numbers, trailing junk), with a fixed seed so a failure
// reproduces. Every mutated text either throws dfp::Error or reads to a fixed point:
// W(R(W(R(x)))) == W(R(x)). The test runs in-process, so an abort — or a sanitizer report in
// a sanitizer build — fails it.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/critpath/slack.h"
#include "src/engine/query_engine.h"
#include "src/profiling/serialize.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/replay/plan_codec.h"
#include "src/replay/recorder.h"
#include "src/replay/trace.h"
#include "src/service/service_profile.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace dfp {
namespace {

constexpr int kMutationsPerFormat = 2000;

struct Seeds {
  std::unique_ptr<Database> db;  // The catalog plan blocks resolve their tables against.
  std::string dictionary;
  std::string samples;  // With task lines.
  std::string profile;  // A state file: every store, plus one reopt line.
  std::string trace;
  std::string plan;
};

Seeds MakeSeeds() {
  ServiceConfig config;
  config.parallel.workers = 2;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.session_state_bytes = 512ull * 1024;
  config.profiling.period = 4001;
  config.tiering.enabled = true;
  config.reopt.enabled = true;
  config.sched.slack_scheduling = true;

  Seeds seeds;
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  seeds.db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.002;
  GenerateTpch(*seeds.db, options);

  QueryService service(*seeds.db, config);
  TraceRecorder recorder;
  service.AttachRecorder(recorder);
  service.Submit(BuildQueryPlan(*seeds.db, FindQuery("q6")), "q6");
  const TicketId q3 = service.Submit(BuildQueryPlan(*seeds.db, FindQuery("q3")), "q3");
  service.Drain();
  service.Submit(BuildQueryPlan(*seeds.db, FindQuery("q6")), "q6");
  service.Drain();
  service.SnapshotBaseline();

  const QueryTicket& ticket = service.ticket(q3);
  std::ostringstream dictionary;
  WriteDictionary(ticket.session->dictionary(), dictionary);
  seeds.dictionary = dictionary.str();

  GuardedAction<ReoptPayload> reopt{.fingerprint = ticket.fingerprint.structure,
                                     .plan_name = "q3",
                                     .state = GuardState::kKept,
                                     .decided_tsc = 10,
                                     .applied_tsc = 20,
                                     .resolved_tsc = 30};
  reopt.payload.divergence_pct = 400;
  reopt.payload.reordered = true;
  GuardLog<ReoptPayload> reopts;
  reopts.Add(std::move(reopt));
  std::ostringstream profile;
  WriteServiceState(service.fleet_profile(), service.windows(), service.baseline(),
                    service.ServiceNowCycles(), profile, &service.slack(), &service.cards(),
                    &reopts);
  seeds.profile = profile.str();

  const WorkloadTrace& trace = recorder.Finish(service);
  seeds.trace = EncodeTraceText(trace);
  seeds.plan = trace.templates.front().plan_text;

  // The task lines come from a standalone parallel run of the same query.
  QueryEngine engine(seeds.db.get());
  CodegenOptions parallel;
  parallel.parallel = true;
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(*seeds.db, FindQuery("q3")), nullptr, "q3", parallel);
  engine.ExecuteParallel(query, config.parallel);
  std::ostringstream samples;
  WriteSamples(ticket.session->samples(), samples, engine.last_task_boundaries());
  seeds.samples = samples.str();
  return seeds;
}

const Seeds& GetSeeds() {
  static const Seeds seeds = MakeSeeds();
  return seeds;
}

std::vector<std::string> Split(const std::string& text, char separator) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  for (std::string part; std::getline(in, part, separator);) {
    parts.push_back(part);
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, const std::string& separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    out += (i == 0 ? "" : separator) + parts[i];
  }
  return out;
}

// One to three mutations of `seed`, each on a random line.
std::string Mutate(const std::string& seed, Random& rng) {
  static const char* const kHuge[] = {"18446744073709551616", "4294967296", "256",
                                      "9223372036854775808", "2147483648",
                                      "99999999999999999999999"};
  std::vector<std::string> lines = Split(seed, '\n');
  for (int64_t n = rng.Uniform(1, 3); n > 0 && !lines.empty(); --n) {
    const size_t at = rng.Uniform(0, lines.size() - 1);
    std::vector<std::string> fields = Split(lines[at], ' ');
    const size_t field = fields.empty() ? 0 : rng.Uniform(0, fields.size() - 1);
    switch (rng.Uniform(0, 8)) {
      case 0:  // Flip one byte.
        if (!lines[at].empty()) {
          lines[at][rng.Uniform(0, lines[at].size() - 1)] = static_cast<char>(rng.Next());
        }
        continue;
      case 1:  // Sign a field.
        if (!fields.empty()) {
          fields[field] = (rng.Chance(0.5) ? "-" : "+") + fields[field];
        }
        break;
      case 2:  // Truncate the text.
        lines.resize(at + 1);
        lines[at].resize(rng.Uniform(0, lines[at].size()));
        continue;
      case 3:  // Drop a field.
        if (!fields.empty()) {
          fields.erase(fields.begin() + field);
        }
        break;
      case 4: {  // Duplicate the line.
        const std::string line = lines[at];
        lines.insert(lines.begin() + at, line);
        continue;
      }
      case 5:  // A number too wide for its field.
        if (!fields.empty()) {
          fields[field] = kHuge[rng.Uniform(0, std::size(kHuge) - 1)];
        }
        break;
      case 6:  // Trailing bytes on a field.
        if (!fields.empty()) {
          fields[field] += "x";
        }
        break;
      case 7:  // An extra field.
        fields.push_back(rng.Chance(0.5) ? "7" : "junk");
        break;
      case 8:  // Drop the line.
        lines.erase(lines.begin() + at);
        continue;
    }
    lines[at] = Join(fields, " ");
  }
  return Join(lines, "\n") + "\n";
}

// W(R(text)) for one format; throws dfp::Error when R refuses the text.
using RoundTrip = std::function<std::string(const std::string&)>;

void FuzzReader(const std::string& seed, uint64_t rng_seed, const RoundTrip& round_trip) {
  // The seed reads to itself, or the mutations start from a text the writer cannot produce.
  ASSERT_EQ(round_trip(seed), seed);
  Random rng(rng_seed);
  int refused = 0;
  for (int i = 0; i < kMutationsPerFormat; ++i) {
    const std::string mutated = Mutate(seed, rng);
    std::string written;
    try {
      written = round_trip(mutated);
    } catch (const Error&) {
      ++refused;
      continue;
    }
    try {
      EXPECT_EQ(round_trip(written), written) << "mutation " << i << ":\n" << mutated;
    } catch (const Error& e) {
      ADD_FAILURE() << "mutation " << i << ": the written text is refused: " << e.what() << "\n"
                    << mutated;
    }
  }
  // Both outcomes occur: the mutations neither all miss nor all break the format.
  EXPECT_GT(refused, 0);
  EXPECT_LT(refused, kMutationsPerFormat);
}

TEST(ReaderMutation, TaggingDictionary) {
  FuzzReader(GetSeeds().dictionary, 1, [](const std::string& text) {
    std::istringstream in(text);
    std::ostringstream out;
    WriteDictionary(ReadDictionary(in), out);
    return out.str();
  });
}

TEST(ReaderMutation, SampleStream) {
  FuzzReader(GetSeeds().samples, 2, [](const std::string& text) {
    std::istringstream in(text);
    std::vector<TaskBoundary> tasks;
    const std::vector<Sample> samples = ReadSamples(in, &tasks);
    std::ostringstream out;
    WriteSamples(samples, out, tasks);
    return out.str();
  });
}

TEST(ReaderMutation, ServiceProfile) {
  FuzzReader(GetSeeds().profile, 3, [](const std::string& text) {
    std::istringstream in(text);
    WindowedProfile windows;
    BaselineStore baselines;
    uint64_t clock = 0;
    SlackStore slack;
    CardStore cards;
    GuardLog<ReoptPayload> reopts;
    const ServiceProfile profile =
        ReadServiceProfile(in, &windows, &baselines, &clock, &slack, &cards, &reopts);
    std::ostringstream out;
    WriteServiceState(profile, windows, baselines, clock, out, &slack, &cards, &reopts);
    return out.str();
  });
}

TEST(ReaderMutation, Trace) {
  FuzzReader(GetSeeds().trace, 4, [](const std::string& text) {
    std::istringstream in(text);
    return EncodeTraceText(ReadTrace(in));
  });
}

TEST(ReaderMutation, PlanBlock) {
  const Database& db = *GetSeeds().db;
  FuzzReader(GetSeeds().plan, 5, [&db](const std::string& text) {
    return EncodePlanText(*ParsePlanText(text, db));
  });
}

TEST(ReaderMutation, SeedsCoverEveryLineKind) {
  // A line kind missing from the seeds is never mutated, so it is never tested.
  const Seeds& seeds = GetSeeds();
  auto has = [](const std::string& text, const std::string& kind) {
    return text.rfind(kind + " ", 0) == 0 || text.find("\n" + kind + " ") != std::string::npos;
  };
  for (const char* kind : {"task", "link"}) {
    EXPECT_TRUE(has(seeds.dictionary, kind)) << kind;
  }
  EXPECT_TRUE(has(seeds.samples, "task"));
  EXPECT_NE(seeds.samples.find(" W "), std::string::npos);
  for (const char* kind : {"windowcfg", "plan", "op", "crit", "window", "wop", "clock",
                           "baseline", "bop", "slackgen", "slack", "slackstep", "cardgen",
                           "cardplan", "card", "reopt"}) {
    EXPECT_TRUE(has(seeds.profile, kind)) << kind;
  }
  for (const char* kind : {"catalog", "start", "knobs", "template", "query", "done", "drain",
                           "summary", "tiers", "fp"}) {
    EXPECT_TRUE(has(seeds.trace, kind)) << kind;
  }
  for (const char* kind : {"op", "x"}) {
    EXPECT_TRUE(has(seeds.plan, kind)) << kind;
  }
}

}  // namespace
}  // namespace dfp
