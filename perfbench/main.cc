// perfbench: the dfp benchmark binary.
//
// Runs one seeded workload through dfp's public API, checks every result against the
// reference interpreter, and prints the run's metrics as one JSON object on the last line of
// stdout:
//
//   perfbench --workload adhoc|serve|fleet --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Workloads (see perfbench/rationale.json for why each exists):
//   adhoc  one analyst profiling one query at a time: parse, bind, compile with Register
//          Tagging, execute, resolve, report, and a sample-stream round trip per query.
//   serve  a QueryService with tiering, governor, slack scheduling, re-optimization and a
//          TraceRecorder; two closed-loop clients submit a Zipf mix and drain each round.
//   fleet  a 4-shard ShardedService; two closed-loop clients submit fan-out spines and a
//          routed query at about 3:1.
//
// Two clocks. Host metrics time the calls this file makes into each layer. Simulated metrics
// come from the structs those calls return; they are marked "exact" and are computed over the
// first queries of the seeded stream only, so one seed repeats them bit for bit at any host
// speed. With --trace 1 the timed window runs its first half untraced and its second half
// recording spans; the spans give the per-layer host times and the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/bench_lib.h"
#include "src/critpath/report.h"
#include "src/engine/query_engine.h"
#include "src/interp/interpreter.h"
#include "src/profiling/reports.h"
#include "src/profiling/serialize.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/replay/trace.h"
#include "src/service/query_service.h"
#include "src/service/service_profile.h"
#include "src/shard/aggtree.h"
#include "src/shard/coordinator.h"
#include "src/shard/partition.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/vcpu/cost_model.h"

namespace perfbench {
namespace {

using dfp::Database;
using dfp::DatabaseConfig;
using dfp::PhysicalOpPtr;
using dfp::QueryTicket;
using dfp::Result;
using dfp::ServiceConfig;
using dfp::TicketId;
using dfp::TicketStatus;

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Literal domain: every SQL date moves by one of these. Five values keep the number of
// distinct texts (and so of reference interpretations) small while most serve submissions
// still re-bind a cached plan to new literals.
const std::vector<int> kDateShiftsDays = {-28, -14, 0, 14, 28};
// Exact metrics cover this many queries from the start of the timed window.
constexpr uint64_t kAdhocExactQueries = 320;  // 20 passes over the 16-query suite.
constexpr uint64_t kServeExactQueries = 184;  // 8 passes over the 23-entry Zipf deck.
constexpr uint64_t kFleetExactQueries = 200;  // 25 passes over the 8-entry fleet deck.
constexpr uint64_t kMinLatencySamples = 200;  // p95 needs 10 samples beyond it.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }
double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

template <typename F>
double TimeSeconds(F&& f) {
  const int64_t start = NowNs();
  f();
  return Seconds(NowNs() - start);
}

// The run's verdict and metrics, printed as one JSON object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit, bool exact = false) {
    metrics_[name] = {std::isfinite(value) ? value : 0, unit, exact};
  }
  void Attempt(uint64_t queries) { attempted_ += queries; }
  // A failed query: rejected, timed out, threw, or returned a wrong result.
  void Fail(const std::string& why) {
    ++failed_;
    Problem(why);
  }
  // A check that failed without a query to blame.
  void Problem(const std::string& why) {
    correct_ = false;
    if (problems_.size() < 20) {
      problems_.push_back(why);
    }
  }

  void Print(std::ostream& out) const {
    out << "{\"correct\":" << (correct_ ? "true" : "false") << ",\"attempted\":" << attempted_
        << ",\"failed\":" << failed_ << ",\"problems\":[";
    for (size_t i = 0; i < problems_.size(); ++i) {
      out << (i ? "," : "") << Quote(problems_[i]);
    }
    out << "],\"metrics\":{";
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metric.value);
      out << (first ? "" : ",") << Quote(name) << ":{\"value\":" << value
          << ",\"unit\":" << Quote(metric.unit)
          << ",\"exact\":" << (metric.exact ? "true" : "false") << "}";
      first = false;
    }
    out << "}}\n";
  }

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    bool exact = false;
  };

  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return out + "\"";
  }

  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> problems_;
};

// --- Set-up ---

struct SetupTimes {
  double database_s = 0;
  double generate_s = 0;
  double warmup_s = 0;
};

// Runs `setup` kSetupRepeats times, calling `teardown` untimed before each, and reports the
// medians of each phase. The state of the last set-up is what the timed window runs on.
void RepeatSetup(const std::function<void()>& teardown,
                 const std::function<void(SetupTimes&)>& setup, Report& report) {
  std::vector<double> total, database, generate, warmup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    SetupTimes times;
    total.push_back(TimeSeconds([&] { setup(times); }));
    database.push_back(times.database_s);
    generate.push_back(times.generate_s);
    warmup.push_back(times.warmup_s);
  }
  report.Set("setup_s", Median(total), "s");
  report.Set("setup.database_s", Median(database), "s");
  report.Set("setup.generate_s", Median(generate), "s");
  report.Set("setup.warmup_s", Median(warmup), "s");
}

// --- Timed window ---

// What one round of a workload completed.
struct Progress {
  uint64_t queries = 0;
  uint64_t instrs = 0;  // Simulated instructions those queries executed.
};

struct Window {
  // Untraced phase, cut into slices of about kSliceSeconds: each slice's rates.
  std::vector<double> qps;
  std::vector<double> minstr_per_s;
  uint64_t untraced_queries = 0;
  double untraced_s = 0;
  // Traced phase (traced runs only).
  uint64_t traced_queries = 0;
  uint64_t traced_instrs = 0;
  double traced_s = 0;
};

// Rates are taken per slice and reported as medians, so a burst of load from elsewhere on the
// host moves a few slices rather than the whole figure.
constexpr double kSliceSeconds = 1.0;

// Calls `round` until `seconds` have passed and at least `min_queries` completed. Traced runs
// spend the first half untraced and the second half with `spans` recording; their untraced
// half still runs until it holds enough latency samples for a p95.
Window RunWindow(const Options& options, SpanRecorder& spans, uint64_t min_queries,
                 const std::function<Progress()>& round) {
  Window window;
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  const uint64_t untraced_min = options.trace ? kMinLatencySamples : min_queries;
  const int64_t start = NowNs();
  int64_t slice_start = start;
  Progress slice;
  while (Seconds(NowNs() - start) < phase_s || window.untraced_queries < untraced_min) {
    const Progress done = round();
    window.untraced_queries += done.queries;
    slice.queries += done.queries;
    slice.instrs += done.instrs;
    const double slice_s = Seconds(NowNs() - slice_start);
    if (slice_s >= kSliceSeconds) {
      window.qps.push_back(static_cast<double>(slice.queries) / slice_s);
      window.minstr_per_s.push_back(static_cast<double>(slice.instrs) / 1e6 / slice_s);
      slice = Progress();
      slice_start = NowNs();
    }
  }
  window.untraced_s = Seconds(NowNs() - start);
  if (options.trace) {
    spans.set_enabled(true);
    const int64_t traced_start = NowNs();
    while (Seconds(NowNs() - traced_start) < phase_s ||
           window.untraced_queries + window.traced_queries < min_queries) {
      const Progress done = round();
      window.traced_queries += done.queries;
      window.traced_instrs += done.instrs;
    }
    window.traced_s = Seconds(NowNs() - traced_start);
    spans.set_enabled(false);
  }
  return window;
}

// Peak resident memory so far. Taken when the exact-metric queries are done, so the figure
// covers set-up plus a fixed amount of work, however fast the host runs.
void ReportPeakRss(Report& report) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");  // KiB on Linux.
}

// Host-time metrics of the untraced window, and the tracing overhead of a traced run.
void ReportWindow(const Window& window, const std::vector<double>& latencies_ms,
                  Report& report) {
  const Percentile p50 = NearestRank(latencies_ms, 50);
  const Percentile p95 = NearestRank(latencies_ms, 95);
  if (!p95.valid) {
    report.Problem("p95 latency over " + std::to_string(p95.samples) + " samples");
  }
  report.Set("host.throughput_qps", Median(window.qps), "1/s");
  report.Set("host.latency_p50_ms", p50.value, "ms");
  report.Set("host.latency_p95_ms", p95.value, "ms");
  report.Set("host.latency_samples", static_cast<double>(p95.samples), "count");
  report.Set("host.sim_minstr_per_s", Median(window.minstr_per_s), "Minstr/s");
  if (window.traced_queries > 0) {
    const double qps = Ratio(static_cast<double>(window.untraced_queries), window.untraced_s);
    const double traced_qps = Ratio(static_cast<double>(window.traced_queries), window.traced_s);
    report.Set("trace.overhead_pct", 100.0 * (1.0 - Ratio(traced_qps, qps)), "%");
  }
}

// Per-layer host times from the traced half: p50 self time of every span with a given name,
// and the summed self time.
class SpanStats {
 public:
  explicit SpanStats(const SpanRecorder& spans) {
    const std::vector<int64_t> self = SelfTimes(spans.spans());
    for (size_t i = 0; i < self.size(); ++i) {
      self_ns_[spans.spans()[i].name].push_back(static_cast<double>(self[i]));
    }
  }
  double P50Us(const std::string& name) const { return Median(Get(name)) / 1e3; }
  double TotalNs(const std::string& name) const {
    double total = 0;
    for (double ns : Get(name)) {
      total += ns;
    }
    return total;
  }

 private:
  std::vector<double> Get(const std::string& name) const {
    const auto it = self_ns_.find(name);
    return it == self_ns_.end() ? std::vector<double>() : it->second;
  }
  std::map<std::string, std::vector<double>> self_ns_;
};

// Writes the recorded spans where --spans asks for them.
void WriteSpans(const Options& options, const SpanRecorder& spans) {
  if (!options.spans_path.empty()) {
    std::ofstream out(options.spans_path);
    spans.Write(out);
  }
}

// --- Simulated counters ---

// Counters summed over the exact-metric queries of a run.
struct Totals {
  uint64_t queries = 0;
  uint64_t exec_cycles = 0;
  uint64_t busy_cycles = 0;
  uint64_t idle_cycles = 0;
  dfp::SamplingOverhead overhead;
  uint64_t instrs = 0;
  uint64_t accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l3_misses = 0;
  uint64_t numa_local = 0;
  uint64_t numa_remote = 0;
  uint64_t cross_node = 0;
  uint64_t morsels = 0;
  uint64_t steals = 0;
  dfp::AttributionStats attribution;

  void AddWorkers(const std::vector<dfp::WorkerMetrics>& workers) {
    for (const dfp::WorkerMetrics& w : workers) {
      busy_cycles += w.busy_cycles;
      idle_cycles += w.idle_cycles;
      instrs += w.cpu_stats.instructions;
      accesses += w.cache_stats.accesses;
      l1_misses += w.cache_stats.l1_misses;
      l3_misses += w.cache_stats.l3_misses;
      numa_local += w.numa_stats.local_accesses;
      numa_remote += w.numa_stats.remote_accesses;
      cross_node += w.numa_stats.cross_node_accesses;
      morsels += w.morsels;
      steals += w.steals;
    }
  }
  void AddAttribution(const dfp::AttributionStats& stats) {
    attribution.total += stats.total;
    attribution.operator_samples += stats.operator_samples;
    attribution.via_tag += stats.via_tag;
    attribution.ambiguous += stats.ambiguous;
  }
  // A service ticket: the session's own clock, its workers and its resolved profile.
  void AddTicket(const QueryTicket& ticket) {
    overhead += ticket.sampling_overhead;
    AddWorkers(ticket.worker_metrics);
    if (ticket.session != nullptr) {
      AddAttribution(ticket.session->Stats());
    }
  }
};

// Simulated metrics every workload reports, over `totals.queries` queries whose simulated
// elapsed time is `clock_cycles`.
void ReportTotals(const Totals& t, uint64_t clock_cycles, Report& report) {
  const auto q = static_cast<double>(t.queries);
  const auto accesses = static_cast<double>(t.accesses);
  const auto& a = t.attribution;
  report.Set("sim_exec_mcycles_per_query", Ratio(static_cast<double>(t.exec_cycles) / 1e6, q),
             "Mcycles", true);
  report.Set("sim_queries_per_gcycle", Ratio(q * 1e9, static_cast<double>(clock_cycles)),
             "1/Gcycle", true);
  report.Set("profiling_overhead_pct",
             100.0 * Ratio(static_cast<double>(t.overhead.total_cycles()),
                           static_cast<double>(t.busy_cycles)),
             "%", true);
  report.Set("attributed_pct",
             100.0 * Ratio(static_cast<double>(a.operator_samples), static_cast<double>(a.total)),
             "%", true);
  report.Set("vcpu.minstr_per_query", Ratio(static_cast<double>(t.instrs) / 1e6, q), "Minstr",
             true);
  report.Set("vcpu.l1_miss_pct", 100.0 * Ratio(static_cast<double>(t.l1_misses), accesses), "%",
             true);
  report.Set("vcpu.l3_miss_pct", 100.0 * Ratio(static_cast<double>(t.l3_misses), accesses), "%",
             true);
  report.Set("vcpu.numa_remote_pct",
             100.0 * Ratio(static_cast<double>(t.numa_remote),
                           static_cast<double>(t.numa_local + t.numa_remote)),
             "%", true);
  report.Set("engine.worker_idle_pct",
             100.0 * Ratio(static_cast<double>(t.idle_cycles),
                           static_cast<double>(t.idle_cycles + t.busy_cycles)),
             "%", true);
  report.Set("engine.steals_per_query", Ratio(static_cast<double>(t.steals), q), "count", true);
  report.Set("engine.morsels_per_query", Ratio(static_cast<double>(t.morsels), q), "count",
             true);
  report.Set("pmu.samples_per_query", Ratio(static_cast<double>(t.overhead.samples), q), "count",
             true);
  report.Set("pmu.overhead_mcycles_per_query",
             Ratio(static_cast<double>(t.overhead.total_cycles()) / 1e6, q), "Mcycles", true);
  report.Set("pmu.flushes_per_query", Ratio(static_cast<double>(t.overhead.flushes), q), "count",
             true);
  report.Set("profiling.via_tag_pct",
             100.0 * Ratio(static_cast<double>(a.via_tag), static_cast<double>(a.total)), "%",
             true);
  report.Set("profiling.ambiguous_pct",
             100.0 * Ratio(static_cast<double>(a.ambiguous), static_cast<double>(a.total)), "%",
             true);
}

// --- Queries and their reference results ---

// Builds a query's plan: parse + bind for SQL, the suite's PlanBuilder code otherwise.
PhysicalOpPtr BuildPlan(Database& db, const QueryText& query, SpanRecorder& spans, int64_t id) {
  if (query.sql.empty()) {
    ScopedSpan span(spans, "sql.bind", id);
    return dfp::FindQuery(query.name).build(db);
  }
  dfp::SelectStatement statement;
  {
    ScopedSpan span(spans, "sql.parse", id);
    statement = dfp::ParseSelect(query.sql);
  }
  ScopedSpan span(spans, "sql.bind", id);
  return dfp::BindSelect(db, statement);
}

// Checks results against the tuple-at-a-time interpreter on its own database, generated with
// the same configuration, seed and scale. References are memoized per query text.
class ReferenceChecker {
 public:
  ReferenceChecker(const DatabaseConfig& config, const dfp::TpchOptions& tpch)
      : db_(std::make_unique<Database>(config)) {
    dfp::GenerateTpch(*db_, tpch);
  }

  // Counts a failure in `report` when `result` differs from the reference.
  void Check(const QueryText& query, const Result& result, Report& report) {
    auto it = memo_.find(query.Key());
    if (it == memo_.end()) {
      SpanRecorder off;
      PhysicalOpPtr plan = BuildPlan(*db_, query, off, -1);
      it = memo_.emplace(query.Key(), dfp::InterpretPlan(*db_, *plan)).first;
    }
    std::string diff;
    if (!Result::Equivalent(result, it->second, dfp::FindQuery(query.name).ordered_result,
                            &diff)) {
      report.Fail(query.name + " differs from the interpreter: " + diff);
    }
  }

 private:
  std::unique_ptr<Database> db_;
  std::map<std::string, Result> memo_;
};

std::vector<std::string> SuiteNames() {
  std::vector<std::string> names;
  for (const dfp::QuerySpec& spec : dfp::TpchQuerySuite()) {
    names.push_back(spec.name);
  }
  return names;
}

// --- adhoc ---

// One analyst profiling one query at a time, closed loop, one client.
class Adhoc {
 public:
  Adhoc(const Options& options, Report& report)
      : options_(options),
        report_(report),
        stream_(SuiteNames(), kDateShiftsDays, options.seed) {
    tpch_.scale = 0.0005;
    profiling_.period = 1000;
    profiling_.capture_address = true;
    profiling_.attribution = dfp::AttributionMode::kRegisterTagging;
  }

  void Run() {
    RepeatSetup(
        [&] {
          engine_.reset();
          db_.reset();
        },
        [&](SetupTimes& t) {
          t.database_s = TimeSeconds([&] { db_ = std::make_unique<Database>(db_config_); });
          t.generate_s = TimeSeconds([&] { dfp::GenerateTpch(*db_, tpch_); });
          t.warmup_s = TimeSeconds([&] {
            engine_ = std::make_unique<dfp::QueryEngine>(db_.get());
            QueryStream warmup(SuiteNames(), {0}, options_.seed ^ 0x5eed);
            for (size_t i = 0; i < dfp::TpchQuerySuite().size(); ++i) {
              Query(warmup.Next(), -1);
            }
          });
        },
        report_);
    timed_ = true;
    const Window window =
        RunWindow(options_, spans_, std::max(kAdhocExactQueries, kMinLatencySamples), [&] {
          return Progress{1, Query(stream_.Next(), next_id_++)};
        });
    report_.Attempt(window.untraced_queries + window.traced_queries);
    ReportWindow(window, latencies_ms_, report_);
    ReportTotals(exact_, exact_.exec_cycles, report_);
    ReportLayers(window);
    engine_.reset();
    db_.reset();
    ReferenceChecker reference(db_config_, tpch_);
    for (const auto& [query, result] : results_) {
      reference.Check(query, result, report_);
    }
  }

 private:
  // Runs one query through every layer the analyst touches and returns the simulated
  // instructions it executed. `id` < 0 marks a warm-up query.
  uint64_t Query(const QueryText& query, int64_t id) {
    try {
      const int64_t start = NowNs();
      ScopedSpan root(spans_, "query", id);
      dfp::ProfilingSession session(profiling_);
      PhysicalOpPtr plan = BuildPlan(*db_, query, spans_, id);
      dfp::CompiledQuery compiled;
      int64_t compile_ns = 0;
      {
        ScopedSpan span(spans_, "engine.compile", id);
        const int64_t compile_start = NowNs();
        compiled = engine_->Compile(std::move(plan), &session, query.name);
        compile_ns = NowNs() - compile_start;
      }
      Result result;
      {
        ScopedSpan span(spans_, "vcpu.execute", id);
        result = engine_->Execute(compiled);
      }
      {
        ScopedSpan span(spans_, "profiling.resolve", id);
        session.Resolve(db_->code_map());
      }
      {
        ScopedSpan span(spans_, "profiling.report", id);
        const dfp::OperatorProfile profile = dfp::BuildOperatorProfile(session, compiled);
        dfp::RenderAnnotatedPlan(profile, compiled);
        dfp::RenderAnnotatedListing(session, compiled);
        dfp::BuildMemoryProfile(session, compiled);
      }
      std::string dictionary_text;
      std::string samples_text;
      {
        ScopedSpan span(spans_, "profiling.serialize", id);
        std::ostringstream dictionary_out;
        std::ostringstream samples_out;
        dfp::WriteDictionary(session.dictionary(), dictionary_out);
        dfp::WriteSamples(session.samples(), samples_out);
        dictionary_text = dictionary_out.str();
        samples_text = samples_out.str();
      }
      dfp::TaggingDictionary dictionary;
      std::vector<dfp::Sample> samples;
      {
        ScopedSpan span(spans_, "profiling.parse", id);
        std::istringstream dictionary_in(dictionary_text);
        std::istringstream samples_in(samples_text);
        dictionary = dfp::ReadDictionary(dictionary_in);
        samples = dfp::ReadSamples(samples_in);
      }
      const int64_t end = NowNs();
      if (!timed_) {
        return 0;
      }
      if (!RoundTripped(session, dictionary_text, dictionary, samples)) {
        report_.Fail(query.name + ": sample stream did not round-trip");
        return 0;
      }
      if (spans_.enabled()) {
        traced_samples_ += session.samples().size();
      } else {
        latencies_ms_.push_back(static_cast<double>(end - start) / 1e6);
      }
      compile_ms_[query.name].push_back(static_cast<double>(compile_ns) / 1e6);
      model_ms_[query.name].push_back(
          dfp::CyclesToMs(dfp::EstimateCompileCycles(compiled, dfp::CompileCostModel())));
      if (exact_.queries < kAdhocExactQueries) {
        AddExact(compiled, session, samples_text.size() + dictionary_text.size());
        if (exact_.queries == kAdhocExactQueries) {
          ReportPeakRss(report_);
        }
      }
      results_.emplace_back(query, std::move(result));
      return engine_->last_cpu_stats().instructions;
    } catch (const std::exception& e) {
      if (!timed_) {
        throw;
      }
      report_.Fail(query.name + ": " + e.what());
      return 0;
    }
  }

  static bool RoundTripped(const dfp::ProfilingSession& session,
                           const std::string& dictionary_text,
                           const dfp::TaggingDictionary& dictionary,
                           const std::vector<dfp::Sample>& samples) {
    std::ostringstream rewritten;
    dfp::WriteDictionary(dictionary, rewritten);
    if (rewritten.str() != dictionary_text || samples.size() != session.samples().size()) {
      return false;
    }
    for (size_t i = 0; i < samples.size(); ++i) {
      const dfp::Sample& a = samples[i];
      const dfp::Sample& b = session.samples()[i];
      if (a.tsc != b.tsc || a.ip != b.ip || a.addr != b.addr) {
        return false;
      }
    }
    return true;
  }

  void AddExact(const dfp::CompiledQuery& compiled, const dfp::ProfilingSession& session,
                size_t stream_bytes) {
    ++exact_.queries;
    exact_.exec_cycles += engine_->last_cycles();
    exact_.busy_cycles += engine_->last_cycles();
    exact_.overhead += engine_->last_sampling_overhead();
    exact_.instrs += engine_->last_cpu_stats().instructions;
    exact_.accesses += engine_->last_cache_stats().accesses;
    exact_.l1_misses += engine_->last_cache_stats().l1_misses;
    exact_.l3_misses += engine_->last_cache_stats().l3_misses;
    exact_.AddAttribution(session.Stats());
    pipelines_ += compiled.pipelines.size();
    for (const dfp::PipelineArtifact& artifact : compiled.pipelines) {
      ir_instrs_ += artifact.stats.ir_instrs;
      machine_instrs_ += artifact.stats.machine_instrs;
      spilled_vregs_ += artifact.stats.spilled_vregs;
    }
    stream_bytes_ += stream_bytes;
  }

  void ReportLayers(const Window& window) {
    const auto q = static_cast<double>(exact_.queries);
    report_.Set("engine.pipelines", Ratio(static_cast<double>(pipelines_), q), "count", true);
    report_.Set("backend.ir_instrs", Ratio(static_cast<double>(ir_instrs_), q), "count", true);
    report_.Set("backend.machine_instrs", Ratio(static_cast<double>(machine_instrs_), q), "count",
                true);
    report_.Set("backend.spilled_vregs", Ratio(static_cast<double>(spilled_vregs_), q), "count",
                true);
    report_.Set("profiling.stream_kb_per_query",
                Ratio(static_cast<double>(stream_bytes_) / 1024.0, q), "KiB", true);
    // The CompileCostModel's error: modelled compile time over measured host compile time.
    double model_total = 0;
    double measured_total = 0;
    for (const auto& [name, measured] : compile_ms_) {
      const std::vector<double>& model = model_ms_[name];
      for (size_t i = 0; i < measured.size(); ++i) {
        model_total += model[i];
        measured_total += measured[i];
      }
      report_.Set("engine.compile_model_ratio." + name, Ratio(Median(model), Median(measured)),
                  "ratio");
    }
    report_.Set("engine.compile_model_ratio", Ratio(model_total, measured_total), "ratio");
    if (!options_.trace) {
      return;
    }
    const SpanStats stats(spans_);
    report_.Set("sql.parse_us", stats.P50Us("sql.parse"), "us");
    report_.Set("sql.bind_us", stats.P50Us("sql.bind"), "us");
    report_.Set("engine.compile_us", stats.P50Us("engine.compile"), "us");
    report_.Set("vcpu.execute_us", stats.P50Us("vcpu.execute"), "us");
    report_.Set("vcpu.host_ns_per_instr",
                Ratio(stats.TotalNs("vcpu.execute"), static_cast<double>(window.traced_instrs)),
                "ns");
    report_.Set("profiling.resolve_us", stats.P50Us("profiling.resolve"), "us");
    report_.Set("profiling.resolve_ns_per_sample",
                Ratio(stats.TotalNs("profiling.resolve"), static_cast<double>(traced_samples_)),
                "ns");
    report_.Set("profiling.report_us", stats.P50Us("profiling.report"), "us");
    report_.Set("profiling.serialize_us", stats.P50Us("profiling.serialize"), "us");
    report_.Set("profiling.parse_us", stats.P50Us("profiling.parse"), "us");
    WriteSpans(options_, spans_);
  }

  const Options& options_;
  Report& report_;
  QueryStream stream_;
  dfp::TpchOptions tpch_;
  const DatabaseConfig db_config_;
  dfp::ProfilingConfig profiling_;
  SpanRecorder spans_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<dfp::QueryEngine> engine_;
  bool timed_ = false;
  int64_t next_id_ = 0;

  Totals exact_;
  uint64_t pipelines_ = 0;
  uint64_t ir_instrs_ = 0;
  uint64_t machine_instrs_ = 0;
  uint64_t spilled_vregs_ = 0;
  uint64_t stream_bytes_ = 0;
  uint64_t traced_samples_ = 0;
  std::vector<double> latencies_ms_;
  std::map<std::string, std::vector<double>> compile_ms_;
  std::map<std::string, std::vector<double>> model_ms_;
  std::vector<std::pair<QueryText, Result>> results_;
};

// --- serve and fleet ---

// The always-on serving settings serve uses and every fleet shard repeats: 4 simulated
// workers, 2 active sessions, tiering, windows, the governor at a 2% budget, slack scheduling
// and re-optimization.
ServiceConfig ServiceSettings(uint64_t session_hashtables_bytes, uint64_t session_output_bytes) {
  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = session_hashtables_bytes;
  config.session_output_bytes = session_output_bytes;
  config.tiering.enabled = true;
  config.continuous.windows_enabled = true;
  config.continuous.governor.enabled = true;
  config.continuous.governor.overhead_budget = 0.02;
  config.sched.slack_scheduling = true;
  config.reopt.enabled = true;
  return config;
}

// Zipf (s = 1) weights over eight dated SQL templates, as a 23-entry deck. Cheap scans rank
// first; q5 (about 47 M simulated instructions per run) is left out so a run holds enough
// queries for its p95.
std::vector<std::string> ServeDeck() {
  const std::vector<std::pair<std::string, int>> weights = {
      {"q6", 9}, {"q14", 4}, {"q12", 3}, {"q3", 2}, {"q10", 2}, {"q8", 1}, {"q7", 1}, {"q1", 1}};
  std::vector<std::string> deck;
  for (const auto& [name, count] : weights) {
    deck.insert(deck.end(), static_cast<size_t>(count), name);
  }
  return deck;
}

// Fan-out spines against the routed q16 at 3:1.
std::vector<std::string> FleetDeck() {
  return {"q1", "q3", "q4", "q6", "q12", "q14", "q16", "q16"};
}

std::vector<std::string> Distinct(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

uint64_t GovernorPeriodSum(const dfp::QueryService& service, uint64_t* plans) {
  uint64_t sum = 0;
  for (const auto& [fingerprint, state] : service.governor().plans()) {
    (void)fingerprint;
    sum += state.period;
    ++*plans;
  }
  return sum;
}

// The serving path: QueryService with a TraceRecorder, closed loop, two clients per round.
class Serve {
 public:
  Serve(const Options& options, Report& report)
      : options_(options),
        report_(report),
        stream_(ServeDeck(), kDateShiftsDays, options.seed),
        config_(ServiceSettings(48ull << 20, 24ull << 20)) {
    tpch_.scale = 0.01;
    db_config_.extra_bytes = dfp::ServiceArenaBytes(config_);
  }

  void Run() {
    RepeatSetup([&] { Teardown(); },
                [&](SetupTimes& t) {
                  t.database_s =
                      TimeSeconds([&] { db_ = std::make_unique<Database>(db_config_); });
                  t.generate_s = TimeSeconds([&] { dfp::GenerateTpch(*db_, tpch_); });
                  t.warmup_s = TimeSeconds([&] { WarmUp(); });
                },
                report_);
    clock_start_ = service_->ServiceNowCycles();
    const Window window = RunWindow(options_, spans_,
                                    std::max(kServeExactQueries, kMinLatencySamples),
                                    [&] { return Round(); });
    report_.Attempt(window.untraced_queries + window.traced_queries);
    ReportWindow(window, latencies_ms_, report_);
    if (!snapshot_taken_) {
      report_.Problem("exact metrics were not taken");
    }
    spans_.set_enabled(options_.trace);
    for (int i = 0; i < 5; ++i) {
      std::ostringstream state;
      {
        ScopedSpan span(spans_, "service.state_write");
        dfp::WriteServiceState(service_->fleet_profile(), service_->windows(),
                               service_->baseline(), service_->ServiceNowCycles(), state,
                               &service_->slack(), &service_->cards(), &service_->reopts());
      }
      {
        ScopedSpan span(spans_, "critpath.render");
        dfp::RenderCriticalPath(service_->criticality());
      }
      ScopedSpan span(spans_, "continuous.detect");
      service_->DetectRegressions();
    }
    std::vector<std::pair<QueryText, Result>> results;
    for (const auto& [query, id] : window_tickets_) {
      const QueryTicket& ticket = service_->ticket(id);
      if (ticket.status == TicketStatus::kDone) {
        results.emplace_back(query, ticket.result);
      }
    }
    dfp::WorkloadTrace trace;
    if (options_.trace) {
      recorder_->Finish(*service_);
      std::string text;
      {
        ScopedSpan span(spans_, "replay.encode");
        text = dfp::EncodeTraceText(recorder_->trace());
      }
      report_.Set("replay.trace_kb", static_cast<double>(text.size()) / 1024.0, "KiB");
      ScopedSpan span(spans_, "replay.decode");
      std::istringstream in(text);
      trace = dfp::ReadTrace(in);
    }
    spans_.set_enabled(false);
    Teardown();
    {
      ReferenceChecker reference(db_config_, tpch_);
      for (const auto& [query, result] : results) {
        reference.Check(query, result, report_);
      }
    }
    if (options_.trace) {
      Replay(trace);
      ReportSpans(window);
    }
  }

 private:
  void Teardown() {
    service_.reset();  // Before the recorder it reports to.
    recorder_.reset();
    db_.reset();
  }

  // Submits the templates that are not yet promoted to the optimizing tier, two per round,
  // until every template is promoted (or a round cap is hit).
  void WarmUp() {
    service_ = std::make_unique<dfp::QueryService>(*db_, config_);
    recorder_ = std::make_unique<dfp::TraceRecorder>();
    service_->AttachRecorder(*recorder_);
    dfp::Random rng(options_.seed ^ 0x5eed);
    std::vector<std::string> pending = Distinct(ServeDeck());
    std::map<std::string, uint64_t> structure;  // Template -> plan structure fingerprint.
    size_t next = 0;
    constexpr int kMaxRounds = 60;
    for (int round = 0; round < kMaxRounds && !pending.empty(); ++round) {
      for (int client = 0; client < 2; ++client) {
        const std::string& name = pending[next++ % pending.size()];
        const int shift = kDateShiftsDays[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(kDateShiftsDays.size()) - 1))];
        const QueryText query{name, ShiftDates(dfp::FindQuery(name).sql, shift)};
        PhysicalOpPtr plan = BuildPlan(*db_, query, spans_, -1);
        structure[name] =
            service_->ticket(service_->Submit(std::move(plan), name)).fingerprint.structure;
      }
      service_->Drain();
      std::set<uint64_t> promoted;
      for (const dfp::TierTransition& transition : service_->tier_controller().transitions()) {
        if (transition.swapped_at_cycles > 0) {
          promoted.insert(transition.fingerprint);
        }
      }
      std::erase_if(pending, [&](const std::string& name) {
        const auto it = structure.find(name);
        return it != structure.end() && promoted.count(it->second) != 0;
      });
    }
    service_->SnapshotBaseline();
  }

  Progress Round() {
    struct Submitted {
      QueryText query;
      TicketId id = 0;
      int64_t start = 0;
    };
    std::vector<Submitted> submitted;
    ScopedSpan root(spans_, "round");
    for (int client = 0; client < 2; ++client) {
      Submitted s{stream_.Next(), 0, NowNs()};
      const int64_t id = next_id_++;
      try {
        PhysicalOpPtr plan = BuildPlan(*db_, s.query, spans_, id);
        ScopedSpan span(spans_, "service.submit", id);
        s.id = service_->Submit(std::move(plan), s.query.name);
        submitted.push_back(std::move(s));
      } catch (const std::exception& e) {
        report_.Fail(s.query.name + ": " + e.what());
      }
    }
    {
      ScopedSpan span(spans_, "service.drain");
      service_->Drain();
    }
    const int64_t end = NowNs();
    Progress progress{2, 0};
    for (Submitted& s : submitted) {
      const QueryTicket& ticket = service_->ticket(s.id);
      if (ticket.status != TicketStatus::kDone) {
        report_.Fail(s.query.name + ": ticket not done (status " +
                     std::to_string(static_cast<int>(ticket.status)) + ")");
      }
      uint64_t instrs = 0;
      for (const dfp::WorkerMetrics& worker : ticket.worker_metrics) {
        instrs += worker.cpu_stats.instructions;
      }
      progress.instrs += instrs;
      if (!spans_.enabled()) {
        latencies_ms_.push_back(static_cast<double>(end - s.start) / 1e6);
      }
      if (exact_.queries < kServeExactQueries) {
        AddExact(ticket);
      }
      window_tickets_.emplace_back(std::move(s.query), s.id);
    }
    if (exact_.queries == kServeExactQueries && !snapshot_taken_) {
      Snapshot();
    }
    return progress;
  }

  void AddExact(const QueryTicket& ticket) {
    ++exact_.queries;
    exact_.exec_cycles += ticket.execute_cycles;
    exact_.AddTicket(ticket);
    cache_hits_ += ticket.cache_hit ? 1 : 0;
    patched_hits_ += ticket.patched_sites > 0 ? 1 : 0;
    baseline_tier_ += ticket.tier == dfp::PlanTier::kBaseline ? 1 : 0;
  }

  // Exact metrics, taken when the K-th window query completes.
  void Snapshot() {
    snapshot_taken_ = true;
    ReportPeakRss(report_);
    const double q = static_cast<double>(exact_.queries);
    ReportTotals(exact_, service_->ServiceNowCycles() - clock_start_, report_);
    report_.Set("service.cache_hit_pct", 100.0 * Ratio(static_cast<double>(cache_hits_), q), "%",
                true);
    report_.Set("service.patched_hit_pct", 100.0 * Ratio(static_cast<double>(patched_hits_), q),
                "%", true);
    report_.Set("service.resident_code_kb",
                static_cast<double>(service_->plan_cache().stats().resident_code_bytes) / 1024.0,
                "KiB", true);
    const std::vector<uint64_t>& lanes = service_->lane_cycles();
    double lane_sum = 0;
    double lane_max = 0;
    for (uint64_t lane : lanes) {
      lane_sum += static_cast<double>(lane);
      lane_max = std::max(lane_max, static_cast<double>(lane));
    }
    report_.Set("service.lane_imbalance_pct",
                100.0 * (Ratio(lane_max * static_cast<double>(lanes.size()), lane_sum) - 1.0),
                "%", true);
    report_.Set("tiering.promotions",
                static_cast<double>(service_->tier_controller().transitions().size()), "count",
                true);
    report_.Set("tiering.baseline_tier_pct",
                100.0 * Ratio(static_cast<double>(baseline_tier_), q), "%", true);
    report_.Set("continuous.findings",
                static_cast<double>(service_->DetectRegressions().size()), "count", true);
    uint64_t plans = 0;
    const uint64_t periods = GovernorPeriodSum(*service_, &plans);
    report_.Set("continuous.governor_period_mean",
                Ratio(static_cast<double>(periods), static_cast<double>(plans)), "instr", true);
    uint64_t critical = 0;
    uint64_t wall = 0;
    for (const auto& [fingerprint, plan] : service_->criticality().plans()) {
      (void)fingerprint;
      critical += plan.critical_work_cycles;
      wall += plan.wall_cycles;
    }
    report_.Set("critpath.critical_share_pct",
                100.0 * Ratio(static_cast<double>(critical), static_cast<double>(wall)), "%",
                true);
    report_.Set("reopt.replans", static_cast<double>(service_->reopts().actions().size()),
                "count", true);
    report_.Set("reopt.reverted", static_cast<double>(service_->reopts().reverted()), "count",
                true);
  }

  // Identity replay of everything the recorder saw, on a fresh database of the same
  // configuration: it must reproduce the recording exactly.
  void Replay(const dfp::WorkloadTrace& trace) {
    Database db(db_config_);
    dfp::GenerateTpch(db, tpch_);
    spans_.set_enabled(true);
    dfp::ReplayRun run;
    {
      ScopedSpan span(spans_, "replay.replay");
      run = dfp::ReplayTrace(db, trace);
    }
    spans_.set_enabled(false);
    const dfp::ReplayReport diff = dfp::DiffTraces(trace, run.trace);
    report_.Set("replay.diverged", static_cast<double>(diff.queries_diverged), "count", true);
    if (!diff.identical) {
      report_.Problem("identity replay diverged on " + std::to_string(diff.queries_diverged) +
                      " queries");
    }
  }

  void ReportSpans(const Window& window) {
    const SpanStats stats(spans_);
    report_.Set("sql.parse_us", stats.P50Us("sql.parse"), "us");
    report_.Set("sql.bind_us", stats.P50Us("sql.bind"), "us");
    report_.Set("service.submit_us", stats.P50Us("service.submit"), "us");
    report_.Set("service.drain_ms", stats.P50Us("service.drain") / 1e3, "ms");
    report_.Set("vcpu.host_ns_per_instr",
                Ratio(stats.TotalNs("service.drain"), static_cast<double>(window.traced_instrs)),
                "ns");
    report_.Set("service.state_write_us", stats.P50Us("service.state_write"), "us");
    report_.Set("critpath.render_us", stats.P50Us("critpath.render"), "us");
    report_.Set("continuous.detect_us", stats.P50Us("continuous.detect"), "us");
    report_.Set("replay.encode_us", stats.P50Us("replay.encode"), "us");
    report_.Set("replay.decode_us", stats.P50Us("replay.decode"), "us");
    report_.Set("replay.replay_s", stats.TotalNs("replay.replay") / 1e9, "s");
    WriteSpans(options_, spans_);
  }

  const Options& options_;
  Report& report_;
  QueryStream stream_;
  ServiceConfig config_;
  DatabaseConfig db_config_;
  dfp::TpchOptions tpch_;
  SpanRecorder spans_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<dfp::TraceRecorder> recorder_;
  std::unique_ptr<dfp::QueryService> service_;
  int64_t next_id_ = 0;
  uint64_t clock_start_ = 0;
  bool snapshot_taken_ = false;

  Totals exact_;
  uint64_t cache_hits_ = 0;
  uint64_t patched_hits_ = 0;
  uint64_t baseline_tier_ = 0;
  std::vector<double> latencies_ms_;
  std::vector<std::pair<QueryText, TicketId>> window_tickets_;
};

// The sharded service: a 4-shard ShardedService, closed loop, two clients per round.
class Fleet {
 public:
  Fleet(const Options& options, Report& report)
      : options_(options), report_(report), stream_(FleetDeck(), kDateShiftsDays, options.seed) {
    config_.service = ServiceSettings(16ull << 20, 8ull << 20);
    config_.merge_sampling = dfp::DefaultMergeSampling();
    // Trimmed regions, as bench_service sizes its shard databases: five of them coexist.
    db_config_.columns_bytes = 64ull << 20;
    db_config_.strings_bytes = 8ull << 20;
    db_config_.hashtables_bytes = 64ull << 20;
    db_config_.output_bytes = 32ull << 20;
    db_config_.extra_bytes = dfp::ShardArenaBytes(config_, kShards);
    catalog_config_.shards = kShards;
    catalog_config_.db = db_config_;
    catalog_config_.tpch.scale = 0.005;
  }

  void Run() {
    RepeatSetup(
        [&] {
          sharded_.reset();
          catalog_.reset();
        },
        [&](SetupTimes& t) {
          // The catalog constructor generates the dataset and slices it: all of it counts as
          // database set-up here.
          t.database_s = TimeSeconds(
              [&] { catalog_ = std::make_unique<dfp::ShardCatalog>(catalog_config_); });
          t.warmup_s = TimeSeconds([&] { WarmUp(); });
        },
        report_);
    shard_clock_start_ = MaxShardClock();
    cross_bytes_start_ = sharded_->cross_node_bytes();
    cross_events_start_ = sharded_->coordinator_numa_stats().cross_node_accesses;
    const Window window = RunWindow(options_, spans_,
                                    std::max(kFleetExactQueries, kMinLatencySamples),
                                    [&] { return Round(); });
    report_.Attempt(window.untraced_queries + window.traced_queries);
    ReportWindow(window, latencies_ms_, report_);
    if (!snapshot_taken_) {
      report_.Problem("exact metrics were not taken");
    }
    // Every run ends with a fleet roll-up and a regression sweep.
    spans_.set_enabled(options_.trace);
    for (int i = 0; i < 5; ++i) {
      {
        ScopedSpan span(spans_, "shard.aggregate");
        sharded_->AggregateFleet();
      }
      ScopedSpan span(spans_, "continuous.detect");
      sharded_->DetectRegressions();
    }
    spans_.set_enabled(false);
    std::vector<std::pair<QueryText, Result>> results;
    for (const auto& [query, id] : window_tickets_) {
      const dfp::ShardTicket& ticket = sharded_->ticket(id);
      if (ticket.status == TicketStatus::kDone) {
        results.emplace_back(query, ticket.result);
      }
    }
    sharded_.reset();
    catalog_.reset();
    // The unsharded reference: one database holding the whole dataset.
    ReferenceChecker reference(db_config_, catalog_config_.tpch);
    for (const auto& [query, result] : results) {
      reference.Check(query, result, report_);
    }
    if (options_.trace) {
      ReportSpans(window);
    }
  }

 private:
  static constexpr uint32_t kShards = 4;

  // Two passes over the distinct templates, then the regression baselines.
  void WarmUp() {
    sharded_ = std::make_unique<dfp::ShardedService>(*catalog_, config_);
    const std::vector<std::string> templates = Distinct(FleetDeck());
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& name : templates) {
        const QueryText query{name, dfp::FindQuery(name).sql};
        sharded_->Submit(name, [&](Database& db) { return BuildPlan(db, query, spans_, -1); });
      }
      sharded_->Drain();
    }
    sharded_->SnapshotBaselines();
  }

  uint64_t MaxShardClock() const {
    uint64_t clock = 0;
    for (uint32_t s = 0; s < sharded_->shards(); ++s) {
      clock = std::max(clock, sharded_->shard(s).ServiceNowCycles());
    }
    return clock;
  }

  Progress Round() {
    struct Submitted {
      QueryText query;
      TicketId id = 0;
      int64_t start = 0;
    };
    std::vector<Submitted> submitted;
    ScopedSpan root(spans_, "round");
    for (int client = 0; client < 2; ++client) {
      Submitted s{stream_.Next(), 0, NowNs()};
      const int64_t id = next_id_++;
      try {
        ScopedSpan span(spans_, "shard.submit", id);
        s.id = sharded_->Submit(s.query.name, [&](Database& db) {
          return BuildPlan(db, s.query, spans_, id);
        });
        submitted.push_back(std::move(s));
      } catch (const std::exception& e) {
        report_.Fail(s.query.name + ": " + e.what());
      }
    }
    {
      ScopedSpan span(spans_, "shard.drain");
      sharded_->Drain();
    }
    const int64_t end = NowNs();
    Progress progress{2, 0};
    for (Submitted& s : submitted) {
      const dfp::ShardTicket& ticket = sharded_->ticket(s.id);
      if (ticket.status != TicketStatus::kDone) {
        report_.Fail(s.query.name + ": ticket not done (status " +
                     std::to_string(static_cast<int>(ticket.status)) + ")");
      }
      uint64_t instrs = 0;
      ForEachShardTicket(ticket, [&](const QueryTicket& sub) {
        for (const dfp::WorkerMetrics& worker : sub.worker_metrics) {
          instrs += worker.cpu_stats.instructions;
        }
      });
      progress.instrs += instrs;
      if (!spans_.enabled()) {
        latencies_ms_.push_back(static_cast<double>(end - s.start) / 1e6);
      }
      if (exact_.queries < kFleetExactQueries) {
        AddExact(ticket);
      }
      window_tickets_.emplace_back(std::move(s.query), s.id);
    }
    if (exact_.queries == kFleetExactQueries && !snapshot_taken_) {
      Snapshot();
    }
    return progress;
  }

  template <typename F>
  void ForEachShardTicket(const dfp::ShardTicket& ticket, F&& f) const {
    for (size_t i = 0; i < ticket.shard_tickets.size(); ++i) {
      const uint32_t shard = ticket.fanout ? static_cast<uint32_t>(i) : ticket.owner_shard;
      f(sharded_->shard(shard).ticket(ticket.shard_tickets[i]));
    }
  }

  void AddExact(const dfp::ShardTicket& ticket) {
    ++exact_.queries;
    exact_.exec_cycles += ticket.execute_cycles;
    ForEachShardTicket(ticket, [&](const QueryTicket& sub) { exact_.AddTicket(sub); });
    merge_cycles_ += ticket.merge_cycles;
    fanout_ += ticket.fanout ? 1 : 0;
  }

  // Exact metrics, taken when the K-th window query completes. The fleet clock is the
  // busiest shard's service clock plus the coordinator's merges.
  void Snapshot() {
    snapshot_taken_ = true;
    ReportPeakRss(report_);
    const double q = static_cast<double>(exact_.queries);
    exact_.cross_node += sharded_->coordinator_numa_stats().cross_node_accesses -
                         cross_events_start_;
    ReportTotals(exact_, MaxShardClock() - shard_clock_start_ + merge_cycles_, report_);
    report_.Set("vcpu.cross_node_per_query", Ratio(static_cast<double>(exact_.cross_node), q),
                "count", true);
    report_.Set("shard.fanout_pct", 100.0 * Ratio(static_cast<double>(fanout_), q), "%", true);
    report_.Set("shard.merge_mcycles_per_query",
                Ratio(static_cast<double>(merge_cycles_) / 1e6, q), "Mcycles", true);
    report_.Set("shard.cross_node_kb_per_query",
                Ratio(static_cast<double>(sharded_->cross_node_bytes() - cross_bytes_start_) /
                          1024.0,
                      q),
                "KiB", true);
    report_.Set("continuous.findings",
                static_cast<double>(sharded_->DetectRegressions().size()), "count", true);
    uint64_t plans = 0;
    uint64_t periods = 0;
    for (uint32_t s = 0; s < sharded_->shards(); ++s) {
      periods += GovernorPeriodSum(sharded_->shard(s), &plans);
    }
    report_.Set("continuous.governor_period_mean",
                Ratio(static_cast<double>(periods), static_cast<double>(plans)), "instr", true);
  }

  void ReportSpans(const Window& window) {
    const SpanStats stats(spans_);
    report_.Set("sql.parse_us", stats.P50Us("sql.parse"), "us");
    report_.Set("sql.bind_us", stats.P50Us("sql.bind"), "us");
    report_.Set("shard.submit_us", stats.P50Us("shard.submit"), "us");
    report_.Set("shard.drain_ms", stats.P50Us("shard.drain") / 1e3, "ms");
    report_.Set("shard.aggregate_us", stats.P50Us("shard.aggregate"), "us");
    report_.Set("continuous.detect_us", stats.P50Us("continuous.detect"), "us");
    report_.Set("vcpu.host_ns_per_instr",
                Ratio(stats.TotalNs("shard.drain"), static_cast<double>(window.traced_instrs)),
                "ns");
    WriteSpans(options_, spans_);
  }

  const Options& options_;
  Report& report_;
  QueryStream stream_;
  dfp::ShardServiceConfig config_;
  DatabaseConfig db_config_;
  dfp::ShardCatalogConfig catalog_config_;
  SpanRecorder spans_;
  std::unique_ptr<dfp::ShardCatalog> catalog_;
  std::unique_ptr<dfp::ShardedService> sharded_;
  int64_t next_id_ = 0;
  uint64_t shard_clock_start_ = 0;
  uint64_t cross_bytes_start_ = 0;
  uint64_t cross_events_start_ = 0;
  bool snapshot_taken_ = false;

  Totals exact_;
  uint64_t merge_cycles_ = 0;
  uint64_t fanout_ = 0;
  std::vector<double> latencies_ms_;
  std::vector<std::pair<QueryText, TicketId>> window_tickets_;
};

// --- main ---

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options->seconds = std::stod(value);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--spans") {
      options->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && options->seconds > 0 &&
         (options->workload == "adhoc" || options->workload == "serve" ||
          options->workload == "fleet");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t start = NowNs();
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload adhoc|serve|fleet --seed N --seconds S --trace 0|1 "
                 "[--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  Report report;
  if (options.workload == "adhoc") {
    Adhoc(options, report).Run();
  } else if (options.workload == "serve") {
    Serve(options, report).Run();
  } else {
    Fleet(options, report).Run();
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.Set("host.wall_s", Seconds(NowNs() - start), "s");
  report.Set("host.user_s",
             static_cast<double>(usage.ru_utime.tv_sec) + usage.ru_utime.tv_usec / 1e6, "s");
  report.Set("host.sys_s",
             static_cast<double>(usage.ru_stime.tv_sec) + usage.ru_stime.tv_usec / 1e6, "s");
  report.Print(std::cout);
  return 0;
}
