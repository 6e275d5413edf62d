// Building blocks of the dfp benchmark that need no database: seeded query streams,
// nearest-rank percentiles, and host-time spans with self-time accounting.
#ifndef DFP_PERFBENCH_BENCH_LIB_H_
#define DFP_PERFBENCH_BENCH_LIB_H_

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace perfbench {

// Nanoseconds on the host's monotonic clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Query streams ---

// Returns `sql` with every `date 'yyyy-mm-dd'` literal moved by `days`. Interval widths are
// kept, so a query keeps its shape and its selectivity moves only a little.
std::string ShiftDates(const std::string& sql, int days);

// One generated query: a suite query's name plus the SQL text dfp receives. `sql` is empty for
// suite queries that only exist as PlanBuilder code; those are built, not parsed.
struct QueryText {
  std::string name;
  std::string sql;

  // Key under which results are memoized: distinct texts get distinct keys.
  std::string Key() const { return sql.empty() ? name : sql; }
};

// A seeded, endless stream of suite queries. Each pass deals a seeded permutation of `deck`
// (suite query names, repeated by weight), so every pass holds the deck's mix exactly and
// only the order and the literals vary with the seed. Every SQL query gets its dates moved by
// a shift drawn from `shifts_days`.
class QueryStream {
 public:
  QueryStream(std::vector<std::string> deck, std::vector<int> shifts_days, uint64_t seed);

  QueryText Next();

 private:
  std::vector<std::string> deck_;
  std::vector<int> shifts_;
  dfp::Random rng_;
  std::vector<size_t> order_;
  size_t position_ = 0;
};

// --- Percentiles ---

// A nearest-rank percentile with the sample count it was taken over. `valid` is false when
// fewer than `kMinBeyond` samples lie beyond the rank (so p95 needs at least 200 samples):
// such a percentile is too noisy to report.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  bool valid = false;
};
inline constexpr size_t kMinBeyond = 10;
Percentile NearestRank(std::vector<double> values, double pct);

// Median (nearest rank, without the sample-count rule); 0 for an empty input.
double Median(std::vector<double> values);

// --- Spans ---

// One timed call into a layer. `parent` indexes the enclosing span (-1 for a root) and
// `query` is the id of the query the call served (-1 when it served none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t query = -1;
};

// Records spans in memory while enabled; a disabled recorder costs one branch per call.
class SpanRecorder {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index, or -1 when disabled.
  int32_t Begin(const char* name, int64_t query);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: name, start/end ns, parent, query.
  void Write(std::ostream& out) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t query = -1)
      : recorder_(recorder), index_(recorder.Begin(name, query)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

// Self time of every span: its duration minus the part of its interval that its children
// cover (overlapping children are counted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // DFP_PERFBENCH_BENCH_LIB_H_
