// Trace-format unit tests: plan codec round-trips over the whole TPC-H suite, token escaping,
// serialize->parse->serialize fixed points for seeded random traces, the one-header contract,
// the knob table's round trip, and truncated/corrupt-line error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/replay/plan_codec.h"
#include "src/replay/trace.h"
#include "src/service/fingerprint.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/util/check.h"

namespace dfp {
namespace {

std::unique_ptr<Database> MakeDb() {
  auto db = std::make_unique<Database>();
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(*db, options);
  return db;
}

// Deterministic pseudo-random stream for trace fuzzing (no std::random: seeds must reproduce).
struct Lcg {
  uint64_t state;
  explicit Lcg(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
};

WorkloadTrace RandomTrace(uint64_t seed) {
  Lcg rng(seed);
  WorkloadTrace trace;
  trace.catalog_version = rng.Below(5);
  trace.knobs.parallel.workers = 1 + static_cast<uint32_t>(rng.Below(8));
  trace.knobs.parallel.scheduler = static_cast<SchedulerPolicy>(rng.Below(2));
  trace.knobs.max_active_sessions = 1 + static_cast<uint32_t>(rng.Below(32));
  trace.knobs.tiering.enabled = rng.Below(2) != 0;
  trace.knobs.tiering.break_even_ratio = 0.25 * static_cast<double>(1 + rng.Below(8));
  trace.knobs.continuous.governor.overhead_budget = 0.01 * static_cast<double>(1 + rng.Below(5));
  trace.knobs.session_state_bytes = (1 + rng.Below(4)) * kCacheCongruenceBytes;

  PlanTemplate tmpl;
  tmpl.structure = rng.Next();
  tmpl.name = "tmpl with spaces %";
  // A syntactically valid single-op plan block (never parsed against a catalog here).
  tmpl.plan_text = "op 0 1 0 0 0 -1 100 0000000000000000 - % 0 0 0 0 0 0 0\nendplan\n";
  trace.templates.push_back(tmpl);

  const uint32_t queries = 1 + static_cast<uint32_t>(rng.Below(6));
  for (uint32_t seq = 1; seq <= queries; ++seq) {
    TraceQuery q;
    q.seq = seq;
    q.name = "q" + std::to_string(rng.Below(22));
    q.fingerprint.structure = tmpl.structure;
    q.fingerprint.literals = rng.Next();
    q.fingerprint.pinned = rng.Next();
    q.arrival_cycles = rng.Next();
    q.weight = 1 + static_cast<uint32_t>(rng.Below(4));
    q.deadline_cycles = rng.Below(2) != 0 ? rng.Next() : 0;
    // Query 1 is always admitted so every seed's trace carries at least one 'done' line (the
    // corruption tests rewrite it).
    q.outcome = (seq > 1 && rng.Below(4) == 0) ? TraceOutcome::kRejected
                                               : TraceOutcome::kAdmitted;
    const uint64_t bindings = rng.Below(4);
    for (uint64_t i = 0; i < bindings; ++i) {
      LiteralBinding binding;
      switch (rng.Below(3)) {
        case 0:
          binding.kind = LiteralBinding::Kind::kValue;
          binding.value = static_cast<int64_t>(rng.Next()) - (1ll << 40);
          break;
        case 1:
          binding.kind = LiteralBinding::Kind::kPattern;
          binding.pattern = "%pat " + std::to_string(rng.Below(100)) + "%";
          break;
        default:
          binding.kind = LiteralBinding::Kind::kLimit;
          binding.value = static_cast<int64_t>(rng.Below(1000));
          break;
      }
      q.literals.push_back(std::move(binding));
    }
    trace.events.push_back({TraceEvent::Kind::kQuery, seq});
    if (q.outcome == TraceOutcome::kAdmitted) {
      q.completed = true;
      q.status = rng.Below(8) == 0 ? 4 : 2;  // kTimedOut : kDone.
      q.cache_hit = rng.Below(2) != 0;
      q.tier = static_cast<uint8_t>(rng.Below(2));
      q.patched_sites = rng.Below(10);
      q.compile_cycles = rng.Next();
      q.execute_cycles = rng.Next();
      q.completed_at_cycles = rng.Next();
      q.result_rows = rng.Below(10000);
      q.samples = rng.Below(5000);
      q.stream_hash = rng.Next();
    }
    trace.queries.push_back(std::move(q));
    if (trace.queries.back().completed) {
      trace.events.push_back({TraceEvent::Kind::kDone, seq});
    }
    if (rng.Below(3) == 0) {
      trace.events.push_back({TraceEvent::Kind::kDrain, seq});
    }
  }
  trace.events.push_back({TraceEvent::Kind::kDrain, queries});

  TraceSummary& s = trace.summary;
  s.queries = queries;
  for (const TraceQuery& q : trace.queries) {
    if (q.outcome == TraceOutcome::kRejected) {
      ++s.rejected;
    } else if (q.status == 4) {
      ++s.timed_out;
    } else {
      ++s.completed;
    }
    s.samples += q.samples;
  }
  s.service_cycles = rng.Next();
  s.cache_hits = rng.Below(100);
  s.cache_misses = rng.Below(100);
  s.patched_hits = rng.Below(100);
  s.tier_swaps = rng.Below(10);
  s.stream_hash = rng.Next();
  s.tiers.samples = rng.Below(100000);
  s.tiers.baseline_samples = rng.Below(s.tiers.samples + 1);
  s.tiers.optimized_samples = s.tiers.samples - s.tiers.baseline_samples;
  s.tiers.transitions = rng.Below(5);
  s.tiers.swapped = rng.Below(s.tiers.transitions + 1);
  TraceFingerprintSummary fp;
  fp.structure = tmpl.structure;
  fp.name = "q6";
  fp.executions = rng.Below(50);
  fp.execute_cycles = rng.Next();
  fp.latency_p50 = rng.Next();
  fp.latency_p95 = rng.Next();
  fp.latency_max = rng.Next();
  fp.top_operator = "scan lineitem";
  fp.top_operator_samples = rng.Below(10000);
  s.fingerprints.push_back(std::move(fp));
  return trace;
}

// One field fault: field `field` (0 = the keyword) of the first line starting with `keyword`
// becomes `value`; a field past the line's end is appended instead.
struct FieldFault {
  const char* keyword;
  size_t field;
  const char* value;
};

// Applies `fault` to `text` and expects `read` to refuse the result with the malformed-line
// error naming `format` and the faulted line.
template <typename Read>
void ExpectFieldRefused(const std::string& format, const std::string& text,
                        const FieldFault& fault, Read read) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  size_t at = 0;
  while (at < lines.size() && lines[at].rfind(std::string(fault.keyword) + " ", 0) != 0 &&
         lines[at] != fault.keyword) {
    ++at;
  }
  ASSERT_LT(at, lines.size()) << fault.keyword;
  std::vector<std::string> fields;
  std::istringstream line_in(lines[at]);
  for (std::string field; std::getline(line_in, field, ' ');) {
    fields.push_back(field);
  }
  if (fault.field < fields.size()) {
    fields[fault.field] = fault.value;
  } else {
    fields.push_back(fault.value);
  }
  std::string bad;
  for (const std::string& field : fields) {
    bad += (bad.empty() ? "" : " ") + field;
  }
  lines[at] = bad;
  std::string faulted;
  for (const std::string& line : lines) {
    faulted += line + "\n";
  }
  try {
    read(faulted);
    ADD_FAILURE() << "accepted '" << bad << "'";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "malformed " + format + " line " + std::to_string(at + 1) + ": '" + bad + "'");
  }
}

TEST(TraceFormatTest, RefusesSignedOverflowingAndTrailingJunkFields) {
  // Per row one fault: a sign on an unsigned field, a value one past its field's width,
  // trailing bytes on a field, or a token after a fixed-field line's last field.
  const std::string text = EncodeTraceText(RandomTrace(11));
  for (const FieldFault& fault : std::vector<FieldFault>{
           {"catalog", 1, "-1"},
           {"catalog", 1, "+7"},
           {"start", 1, "18446744073709551616"},
           {"start", 2, "0"},
           {"knobs", 1, "parallel.workers=-4"},
           {"knobs", 1, "parallel.workers=4294967296"},
           {"template", 1, "00000000000000000"},
           {"query", 1, "4294967296"},
           {"query", 7, "-1"},
           {"query", 7, "4294967296"},
           {"query", 99, "V"},
           {"done", 5, "-5"},
           {"done", 3, "2"},
           {"done", 4, "256"},
           {"done", 11, "0000000000000000x"},
           {"done", 12, "0"},
           {"drain", 1, "12x"},
           {"summary", 1, "-1"},
           {"tiers", 6, "0"},
           {"fp", 2, "18446744073709551616"},
           {"end", 1, "0"},
       }) {
    ExpectFieldRefused("trace", text, fault, [](const std::string& faulted) {
      std::istringstream in(faulted);
      ReadTrace(in);
    });
  }
}

TEST(PlanCodecTest, RefusesSignedOverflowingAndTrailingJunkFields) {
  auto db = MakeDb();
  const std::string text = EncodePlanText(*BuildQueryPlan(*db, FindQuery("q6")));
  for (const FieldFault& fault : std::vector<FieldFault>{
           {"op", 2, "-1"},
           {"op", 2, "4294967296"},
           {"op", 1, "+0"},
           {"op", 4, "2"},
           {"op", 6, "9223372036854775808"},
           {"op", 7, "12x"},
           {"op", 99, "0"},
           {"x", 1, "-0"},
           {"x", 3, "2147483648"},
           {"x", 4, "9223372036854775808"},
           {"x", 99, "0"},
       }) {
    ExpectFieldRefused("plan", text, fault,
                       [&db](const std::string& faulted) { ParsePlanText(faulted, *db); });
  }
}

TEST(PlanCodecTest, TokenRoundTripAndEdgeCases) {
  const std::vector<std::string> cases = {
      "",      "plain",          "two words",  "tab\there", "new\nline",
      "100%",  "%%",             " leading",   "trailing ", std::string(1, '\0'),
      "\x01\x7f mixed \x1f end", "q6_variant", "%",
  };
  for (const std::string& text : cases) {
    const std::string token = EncodeToken(text);
    EXPECT_EQ(token.find(' '), std::string::npos) << token;
    EXPECT_EQ(token.find('\t'), std::string::npos) << token;
    EXPECT_EQ(token.find('\n'), std::string::npos) << token;
    EXPECT_EQ(DecodeToken(token), text);
  }
  EXPECT_EQ(EncodeToken(""), "%");
  EXPECT_EQ(DecodeToken("%"), "");
  EXPECT_THROW(DecodeToken("bad%"), Error);     // Truncated escape.
  EXPECT_THROW(DecodeToken("bad%2"), Error);    // One hex digit short.
  EXPECT_THROW(DecodeToken("bad%zz"), Error);   // Non-hex escape.
}

// Levels of `expr` over its deepest leaf.
uint32_t ExprHeight(const Expr& expr) {
  uint32_t height = 0;
  auto over = [&height](const ExprPtr& operand) {
    if (operand != nullptr) {
      height = std::max(height, ExprHeight(*operand) + 1);
    }
  };
  for (const auto& [condition, value] : expr.whens) {
    over(condition);
    over(value);
  }
  over(expr.left);
  over(expr.right);
  over(expr.else_value);
  return height;
}

// A WHERE clause of `operators` chained additions under a BETWEEN, which the binder expands into
// two comparisons: the planned expression is one level higher than the SQL one.
std::string ChainUnderBetween(uint32_t operators) {
  std::string sql = "select l_orderkey from lineitem where l_orderkey";
  for (uint32_t i = 0; i < operators; ++i) {
    sql += "+1";
  }
  return sql + " between 1 and 5000000 limit 1";
}

TEST(PlanCodecTest, EveryTpchPlanRoundTripsWithIdenticalFingerprint) {
  auto db = MakeDb();
  std::vector<std::pair<std::string, PhysicalOpPtr>> plans;
  for (const QuerySpec& spec : TpchQuerySuite()) {
    plans.emplace_back(spec.name, BuildQueryPlan(*db, spec));
  }
  // The deepest expression the SQL front end accepts (kMaxExprNesting levels), planned one
  // level higher: the codec's expression bound admits it exactly.
  plans.emplace_back("deepest chain", PlanSql(*db, ChainUnderBetween(kMaxExprNesting - 1)));
  uint32_t deepest = 0;
  for (const PhysicalOp* op : PlanOperators(*plans.back().second)) {
    for (const ExprPtr& expr : op->exprs) {
      deepest = std::max(deepest, ExprHeight(*expr));
    }
  }
  EXPECT_EQ(deepest, kMaxExprNesting + 1);
  EXPECT_THROW(PlanSql(*db, ChainUnderBetween(kMaxExprNesting)), Error);

  for (const auto& [name, original] : plans) {
    const PlanFingerprint before = FingerprintPlan(*original, db->catalog_version());
    const std::string text = EncodePlanText(*original);

    PhysicalOpPtr parsed = ParsePlanText(text, *db);
    const PlanFingerprint after = FingerprintPlan(*parsed, db->catalog_version());
    EXPECT_EQ(before.structure, after.structure) << name;
    EXPECT_EQ(before.literals, after.literals) << name;
    EXPECT_EQ(before.pinned, after.pinned) << name;

    // Serialization is a fixed point: re-encoding the parsed plan is byte-identical.
    EXPECT_EQ(EncodePlanText(*parsed), text) << name;
  }
}

TEST(PlanCodecTest, MalformedPlansThrow) {
  auto db = MakeDb();
  PhysicalOpPtr plan = BuildQueryPlan(*db, FindQuery("q6"));
  const std::string text = EncodePlanText(*plan);

  // Truncation at every line boundary must throw, never crash or mis-parse.
  size_t newlines = 0;
  for (size_t pos = 0; pos < text.size(); ++pos) {
    if (text[pos] != '\n' || pos + 1 == text.size()) {
      continue;
    }
    ++newlines;
    EXPECT_THROW(ParsePlanText(text.substr(0, pos + 1), *db), Error) << "line " << newlines;
  }
  ASSERT_GT(newlines, 2u);

  EXPECT_THROW(ParsePlanText("nonsense 1 2 3\n", *db), Error);
  // Unknown table name.
  std::string bad = text;
  const size_t at = bad.find("lineitem");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 8, "notatable");
  EXPECT_THROW(ParsePlanText(bad, *db), Error);
  // Row estimates are 16 lowercase hex digits (an IEEE-754 bit pattern), nothing else.
  for (const char* estimate : {"zzzzzzzzzzzzzzzz", "12zzzzzzzzzzzzzz", "3FF0000000000000"}) {
    EXPECT_THROW(ParsePlanText(std::string("op 0 1 0 0 0 -1 100 ") + estimate +
                                   " - % 0 0 0 0 0 0 0\nendplan\n",
                               *db),
                 Error)
        << estimate;
  }
  // Out-of-range enum value.
  EXPECT_THROW(ParsePlanText("op 250 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 0\nendplan\n",
                             *db),
               Error);
  // Trailing tokens on an otherwise valid line.
  EXPECT_THROW(
      ParsePlanText("op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 0 junk\nendplan\n", *db),
      Error);
  // Missing endplan terminator.
  EXPECT_THROW(ParsePlanText("op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 0\n", *db),
               Error);
  // Counts the input cannot back (children, output columns, key slots, sort items,
  // expressions, and an expression's IN list) are malformed, never allocated up front.
  for (const char* plan : {
           "op 0 1 99999999999999999 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 0\nendplan\n",
           "op 0 1 0 0 0 -1 0 0000000000000000 - % 2305843009213693951 0 0 0 0 0 0\nendplan\n",
           "op 0 1 0 0 0 -1 0 0000000000000000 - % 0 99999999999999999 0 0 0 0 0\nendplan\n",
           "op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 2305843009213693951 0 0\nendplan\n",
           "op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 99999999999999999 0\nendplan\n",
           "op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 99999999999999999\nendplan\n",
           "op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 1\n"
           "x 0 0 0 0 0 0 0 % 2305843009213693951 0 0 0 0\nendplan\n"}) {
    EXPECT_THROW(ParsePlanText(plan, *db), Error) << plan;
  }
  // So is a block nested deeper than any plan dfp builds, instead of overflowing the stack: an
  // operator tree 200,000 levels deep, an expression as deep, and one a level past the bound
  // that admits the deepest expression the front end plans (kMaxExprNesting + 1 levels).
  auto nested = [](const std::string& head, const std::string& line, const std::string& leaf,
                   uint32_t levels) {
    std::string plan = head;
    for (uint32_t i = 0; i < levels; ++i) {
      plan += line;
    }
    return plan + leaf + "endplan\n";
  };
  const std::string leaf_op = "op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 0\n";
  const std::string op_with_child = "op 0 1 1 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 0\n";
  const std::string op_with_expr = "op 0 1 0 0 0 -1 0 0000000000000000 - % 0 0 0 0 0 0 1\n";
  const std::string expr_with_left = "x 0 0 0 0 0 0 0 % 0 0 1 0 0\n";
  const std::string column = "x 0 0 0 0 0 0 0 % 0 0 0 0 0\n";
  EXPECT_NO_THROW(
      ParsePlanText(nested(op_with_expr, expr_with_left, column, kMaxExprNesting + 1), *db));
  for (const std::string& plan : {nested("", op_with_child, leaf_op, 200'000),
                                  nested(op_with_expr, expr_with_left, column, 200'000),
                                  nested(op_with_expr, expr_with_left, column,
                                         kMaxExprNesting + 2)}) {
    EXPECT_THROW(ParsePlanText(plan, *db), Error) << plan.substr(0, 200);
  }
}

TEST(TraceFormatTest, SeededRandomTracesReachSerializationFixedPoint) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const WorkloadTrace original = RandomTrace(seed);
    const std::string text = EncodeTraceText(original);

    std::istringstream in(text);
    const WorkloadTrace parsed = ReadTrace(in);

    // parse(write(t)) preserves everything write serializes...
    EXPECT_TRUE(KnobsEqual(parsed.knobs, original.knobs)) << "seed " << seed;
    ASSERT_EQ(parsed.queries.size(), original.queries.size()) << "seed " << seed;
    ASSERT_EQ(parsed.events.size(), original.events.size()) << "seed " << seed;
    for (size_t i = 0; i < parsed.queries.size(); ++i) {
      EXPECT_EQ(parsed.queries[i].literals, original.queries[i].literals)
          << "seed " << seed << " query " << i;
      EXPECT_EQ(parsed.queries[i].stream_hash, original.queries[i].stream_hash);
      EXPECT_EQ(parsed.queries[i].arrival_cycles, original.queries[i].arrival_cycles);
    }
    // ...and write(parse(text)) == text: the canonical form is a fixed point.
    EXPECT_EQ(EncodeTraceText(parsed), text) << "seed " << seed;
  }
}

TEST(TraceFormatTest, OneHeaderWrittenAndEveryOtherRefused) {
  const std::string text = EncodeTraceText(RandomTrace(7));
  ASSERT_EQ(text.rfind("# dfp trace v6\n", 0), 0u);

  for (int version = 1; version <= 7; ++version) {
    if (version == 6) {
      continue;
    }
    std::istringstream in("# dfp trace v" + std::to_string(version) +
                          text.substr(text.find('\n')));
    try {
      ReadTrace(in);
      ADD_FAILURE() << "v" << version << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported file header"), std::string::npos)
          << e.what();
    }
  }
  // Non-trace input is refused up front.
  std::istringstream not_a_trace("# dfp samples v8\n");
  EXPECT_THROW(ReadTrace(not_a_trace), Error);
  std::istringstream empty("");
  EXPECT_THROW(ReadTrace(empty), Error);
}

TEST(TraceFormatTest, TruncationAndCorruptionThrow) {
  const WorkloadTrace trace = RandomTrace(11);
  const std::string text = EncodeTraceText(trace);

  // Truncation at every line boundary (dropping the rest of the file) must throw: the 'end'
  // marker, the summary block, or a mid-stream line will be missing.
  for (size_t pos = text.find('\n'); pos + 1 < text.size(); pos = text.find('\n', pos + 1)) {
    std::istringstream in(text.substr(0, pos + 1));
    EXPECT_THROW(ReadTrace(in), Error);
  }

  // Corrupt individual lines.
  auto corrupt = [&text](const std::string& from, const std::string& to) {
    std::string bad = text;
    const size_t at = bad.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    std::istringstream in(bad);
    EXPECT_THROW(ReadTrace(in), Error) << from << " -> " << to;
  };
  corrupt("catalog ", "catalog notanumber");
  corrupt("\nknobs ", "\nknobs 4 bogus ");
  corrupt("\nsummary ", "\nbogus_keyword ");
  corrupt("\nquery 1 ", "\nquery 99 ");   // Out-of-order seq.
  corrupt("\ndone 1 ", "\ndone 9999 ");   // Unknown seq reference.
  corrupt("\nend\n", "\n");               // Missing end marker.
  // A binding count the line cannot back is malformed, never a reservation.
  const std::string bindings = " admitted " + std::to_string(trace.query(1).literals.size());
  corrupt(bindings, " admitted 99999999999999999");
  corrupt(bindings, " admitted 2305843009213693951");
}

// Moves a knob off its default: flags flip, enums take another valid value, integers grow by
// one, doubles by a third (which has no short decimal form).
template <typename T>
void MoveOffDefault(T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = !value;
  } else if constexpr (std::is_enum_v<T>) {
    value = static_cast<T>(static_cast<int>(value) == 0 ? 1 : 0);
  } else if constexpr (std::is_same_v<T, double>) {
    value += 1.0 / 3.0;
  } else {
    value += 1;
  }
}

TEST(TraceFormatTest, KnobsRoundTripThroughServiceConfig) {
  // Every table row set off its default through the table itself, then captured, written,
  // parsed, and compared field by field — a row the codec drops or garbles fails here.
  ServiceConfig config;
  config.state_path = "not/a/knob";
  const ServiceConfig defaults;
  size_t rows = 0;
  ForEachKnob([&](const char* name, auto field) {
    MoveOffDefault(field(config));
    EXPECT_NE(field(config), field(defaults)) << name;
    ++rows;
  });
  EXPECT_EQ(rows, 28u);

  WorkloadTrace trace = RandomTrace(5);
  trace.knobs = CaptureKnobs(config);
  EXPECT_TRUE(KnobsEqual(trace.knobs, config));
  EXPECT_TRUE(trace.knobs.state_path.empty());  // Not a table row: never captured.
  EXPECT_FALSE(KnobsEqual(trace.knobs, defaults));

  const std::string text = EncodeTraceText(trace);
  EXPECT_NE(text.find(" parallel.scheduler=0 "), std::string::npos);
  EXPECT_NE(text.find(" continuous.regression.remote_share_drift="), std::string::npos);
  std::istringstream in(text);
  const WorkloadTrace parsed = ReadTrace(in);
  ForEachKnob([&](const char* name, auto field) {
    EXPECT_EQ(field(parsed.knobs), field(config)) << name;
  });
  EXPECT_EQ(EncodeTraceText(parsed), text);

  // Out-of-range enums, non-hex doubles, non-numeric values, and rows out of table order are
  // malformed, never defaulted.
  auto corrupt = [&text](const std::string& from, const std::string& to) {
    std::string bad = text;
    const size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    std::istringstream bad_in(bad);
    EXPECT_THROW(ReadTrace(bad_in), Error) << from << " -> " << to;
  };
  corrupt(" parallel.scheduler=0 ", " parallel.scheduler=2 ");
  corrupt(" profiling.event=1 ", " profiling.event=8 ");
  corrupt(" profiling.packed_tags=1 ", " profiling.packed_tags=2 ");
  corrupt(" max_active_sessions=3 ", " max_active_sessions=-1 ");
  corrupt(" continuous.governor.overhead_budget=", " continuous.governor.overhead_budget=x");
  corrupt(" parallel.workers=5 parallel.morsel_rows=1 ",
          " parallel.morsel_rows=1 parallel.workers=5 ");
}

TEST(TraceFormatTest, KnobsThatCannotRunAreRefusedAtRead) {
  // Each knobs line parses, but the service it describes would trip an internal invariant on
  // replay; ReadTrace refuses it as a dfp::Error instead.
  const std::vector<std::pair<const char*, void (*)(ServiceConfig&)>> cases = {
      {"max_active_sessions=0", [](ServiceConfig& c) { c.max_active_sessions = 0; }},
      {"session_hashtables_bytes=0", [](ServiceConfig& c) { c.session_hashtables_bytes = 0; }},
      {"session_state_bytes=0", [](ServiceConfig& c) { c.session_state_bytes = 0; }},
      {"session_output_bytes=0", [](ServiceConfig& c) { c.session_output_bytes = 0; }},
      {"reopt without tiering",
       [](ServiceConfig& c) {
         c.reopt.enabled = true;
         c.tiering.enabled = false;
       }},
      {"profiling.period=0", [](ServiceConfig& c) { c.profiling.period = 0; }},
      {"window.width_cycles=0", [](ServiceConfig& c) { c.continuous.window.width_cycles = 0; }},
      {"governor.overhead_budget=0",
       [](ServiceConfig& c) { c.continuous.governor.overhead_budget = 0; }},
      {"parallel.workers=0", [](ServiceConfig& c) { c.parallel.workers = 0; }},
      {"parallel.workers=65", [](ServiceConfig& c) { c.parallel.workers = 65; }},
      {"tiering.break_even_ratio=nan",
       [](ServiceConfig& c) { c.tiering.break_even_ratio = std::nan(""); }},
      {"tiering.break_even_ratio=inf",
       [](ServiceConfig& c) { c.tiering.break_even_ratio = HUGE_VAL; }},
      {"tiering.break_even_ratio=-1", [](ServiceConfig& c) { c.tiering.break_even_ratio = -1; }},
      {"continuous.regression.remote_share_drift=nan",
       [](ServiceConfig& c) { c.continuous.regression.remote_share_drift = std::nan(""); }},
      {"continuous.governor.overhead_budget=inf",
       [](ServiceConfig& c) { c.continuous.governor.overhead_budget = HUGE_VAL; }},
  };
  for (const auto& [name, mutate] : cases) {
    WorkloadTrace trace = RandomTrace(3);
    mutate(trace.knobs);
    std::istringstream in(EncodeTraceText(trace));
    EXPECT_THROW(ReadTrace(in), Error) << name;
    EXPECT_THROW(CheckServiceConfig(trace.knobs), Error) << name;
  }
  // The unmutated trace reads back.
  std::istringstream in(EncodeTraceText(RandomTrace(3)));
  EXPECT_NO_THROW(ReadTrace(in));
}

TEST(TraceFormatTest, Fnv1a64MatchesReferenceVectors) {
  // Reference values of the 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace dfp
