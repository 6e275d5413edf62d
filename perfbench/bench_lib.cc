#include "perfbench/bench_lib.h"

#include <algorithm>
#include <cmath>

#include "src/tpch/queries.h"
#include "src/util/check.h"
#include "src/util/date.h"

namespace perfbench {

std::string ShiftDates(const std::string& sql, int days) {
  static const std::string kPrefix = "date '";
  constexpr size_t kDateLength = 10;  // yyyy-mm-dd
  std::string out;
  size_t from = 0;
  for (size_t at = sql.find(kPrefix); at != std::string::npos; at = sql.find(kPrefix, from)) {
    const size_t date_begin = at + kPrefix.size();
    out.append(sql, from, date_begin - from);
    out += dfp::DateToString(dfp::ParseDate(sql.substr(date_begin, kDateLength)) + days);
    from = date_begin + kDateLength;
  }
  out.append(sql, from, std::string::npos);
  return out;
}

QueryStream::QueryStream(std::vector<std::string> deck, std::vector<int> shifts_days,
                         uint64_t seed)
    : deck_(std::move(deck)), shifts_(std::move(shifts_days)), rng_(seed) {
  DFP_CHECK(!deck_.empty() && !shifts_.empty());
  order_.resize(deck_.size());
  position_ = order_.size();
}

QueryText QueryStream::Next() {
  if (position_ == order_.size()) {
    // Fisher-Yates over the deck, driven by the stream's own generator.
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = i;
    }
    for (size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(i)))]);
    }
    position_ = 0;
  }
  const std::string& name = deck_[order_[position_++]];
  const int shift = shifts_[static_cast<size_t>(
      rng_.Uniform(0, static_cast<int64_t>(shifts_.size()) - 1))];
  const dfp::QuerySpec& spec = dfp::FindQuery(name);
  return {name, spec.sql.empty() ? std::string() : ShiftDates(spec.sql, shift)};
}

Percentile NearestRank(std::vector<double> values, double pct) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) {
    return out;
  }
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(values.size()))));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  out.value = values[rank - 1];
  out.valid = values.size() - rank >= kMinBeyond;
  return out;
}

double Median(std::vector<double> values) { return NearestRank(std::move(values), 50).value; }

int32_t SpanRecorder::Begin(const char* name, int64_t query) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = query;
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::End(int32_t index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  DFP_CHECK(!open_.empty() && open_.back() == index);
  open_.pop_back();
}

void SpanRecorder::Write(std::ostream& out) const {
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"query\":" << span.query << "}\n";
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t reach = span.start_ns;
    for (auto [begin, end] : intervals) {
      begin = std::max(begin, reach);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    self[i] = span.end_ns - span.start_ns - covered;
  }
  return self;
}

}  // namespace perfbench
