// Unit tests of the benchmark's own building blocks (run: python3 perfbench/run.py --self-test).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perfbench/bench_lib.h"
#include "src/tpch/queries.h"

namespace perfbench {
namespace {

std::vector<std::string> Texts(uint64_t seed, size_t count) {
  std::vector<std::string> deck;
  for (const dfp::QuerySpec& spec : dfp::TpchQuerySuite()) {
    deck.push_back(spec.name);
  }
  QueryStream stream(deck, {-28, -14, 0, 14, 28}, seed);
  std::vector<std::string> texts;
  for (size_t i = 0; i < count; ++i) {
    texts.push_back(stream.Next().Key());
  }
  return texts;
}

TEST(QueryStreamTest, SameSeedSameTexts) { EXPECT_EQ(Texts(7, 64), Texts(7, 64)); }

TEST(QueryStreamTest, DifferentSeedDifferentTexts) { EXPECT_NE(Texts(7, 64), Texts(8, 64)); }

TEST(QueryStreamTest, EveryPassDealsTheWholeDeck) {
  QueryStream stream({"q6", "q6", "q1"}, {0}, 3);
  for (int pass = 0; pass < 4; ++pass) {
    int q6 = 0;
    for (int i = 0; i < 3; ++i) {
      q6 += stream.Next().name == "q6" ? 1 : 0;
    }
    EXPECT_EQ(q6, 2);
  }
}

TEST(QueryStreamTest, ShiftDatesMovesEveryDateLiteral) {
  EXPECT_EQ(ShiftDates("a < date '1995-03-15' and b >= date '1994-12-31'", 1),
            "a < date '1995-03-16' and b >= date '1995-01-01'");
  EXPECT_EQ(ShiftDates("no dates here", 14), "no dates here");
}

TEST(PercentileTest, NearestRankReportsValueAndSampleCount) {
  std::vector<double> values;
  for (int i = 200; i >= 1; --i) {
    values.push_back(i);
  }
  const Percentile p50 = NearestRank(values, 50);
  EXPECT_EQ(p50.value, 100);
  EXPECT_EQ(p50.samples, 200u);
  EXPECT_TRUE(p50.valid);
  const Percentile p95 = NearestRank(values, 95);
  EXPECT_EQ(p95.value, 190);
  EXPECT_TRUE(p95.valid);  // Exactly 10 samples beyond rank 190.
}

TEST(PercentileTest, RefusesP95BelowTwoHundredSamples) {
  const Percentile p95 = NearestRank(std::vector<double>(199, 1.0), 95);
  EXPECT_EQ(p95.samples, 199u);
  EXPECT_FALSE(p95.valid);
  EXPECT_FALSE(NearestRank({}, 50).valid);
}

Span MakeSpan(int64_t start, int64_t end, int32_t parent) {
  Span span;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimeTest, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,100) > child [10,60) > grandchild [20,30)
  const std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 60, 0),
                                   MakeSpan(20, 30, 1)};
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{50, 40, 10}));
}

TEST(SelfTimeTest, SiblingsAreSubtractedOnceEvenWhenOverlapping) {
  // root [0,100) with siblings [10,30), [20,40) (overlapping) and [50,60).
  const std::vector<Span> spans = {MakeSpan(0, 100, -1), MakeSpan(10, 30, 0), MakeSpan(20, 40, 0),
                                   MakeSpan(50, 60, 0)};
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{60, 20, 20, 10}));
}

TEST(SelfTimeTest, ChildrenAreClippedToTheirParent) {
  const std::vector<Span> spans = {MakeSpan(10, 20, -1), MakeSpan(5, 15, 0)};
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{5, 10}));
}

TEST(SpanRecorderTest, RecordsParentsOnlyWhileEnabled) {
  SpanRecorder recorder;
  { ScopedSpan off(recorder, "off"); }
  EXPECT_TRUE(recorder.spans().empty());
  recorder.set_enabled(true);
  {
    ScopedSpan outer(recorder, "outer", 3);
    ScopedSpan inner(recorder, "inner", 3);
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[1].query, 3);
  EXPECT_LE(recorder.spans()[0].start_ns, recorder.spans()[1].start_ns);
  EXPECT_GE(recorder.spans()[0].end_ns, recorder.spans()[1].end_ns);
}

}  // namespace
}  // namespace perfbench
