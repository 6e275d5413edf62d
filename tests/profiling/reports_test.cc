#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/profiling/reports.h"
#include "src/util/random.h"

namespace dfp {
namespace {

class ReportsTest : public ::testing::Test {
 protected:
  ReportsTest() : engine(&db) {
    Random rng(5);
    TableBuilder products = db.CreateTableBuilder(
        {"products", {{"id", ColumnType::kInt64}, {"category", ColumnType::kString}}});
    for (int i = 0; i < 100; ++i) {
      products.BeginRow();
      products.SetI64(0, i);
      products.SetString(1, i % 2 == 0 ? "Chip" : "Other");
    }
    db.AddTable(products.Finish());
    TableBuilder sales = db.CreateTableBuilder(
        {"sales", {{"id", ColumnType::kInt64}, {"price", ColumnType::kDecimal}}});
    for (int i = 0; i < 10000; ++i) {
      sales.BeginRow();
      sales.SetI64(0, rng.Uniform(0, 99));
      sales.SetDecimal(1, rng.Uniform(100, 10000));
    }
    db.AddTable(sales.Finish());
  }

  CompiledQuery RunProfiled(ProfilingSession* session) {
    PlanBuilder products = PlanBuilder::Scan(db.table("products"));
    PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
    sales.JoinWith(std::move(products), {"id"}, {"id"}, {"category"}, JoinType::kInner,
                   "TheJoin");
    sales.GroupByKeys({"category"},
                      NamedExprs("total", MakeAggregate(AggOp::kSum, sales.Col("price"))),
                      "TheGroupBy");
    CompiledQuery query = engine.Compile(sales.Build(), session, "report_query");
    engine.Execute(query);
    session->Resolve(db.code_map());
    return query;
  }

  Database db;
  QueryEngine engine;
};

TEST_F(ReportsTest, OperatorProfileSharesSumToOne) {
  ProfilingConfig config;
  config.period = 300;
  ProfilingSession session(config);
  CompiledQuery query = RunProfiled(&session);
  OperatorProfile profile = BuildOperatorProfile(session, query);
  ASSERT_FALSE(profile.operators.empty());
  double total_share = 0;
  uint64_t total_samples = 0;
  for (const OperatorCost& cost : profile.operators) {
    total_share += cost.share;
    total_samples += cost.samples;
  }
  EXPECT_NEAR(total_share, 1.0, 1e-9);
  EXPECT_EQ(total_samples, profile.operator_samples);
  EXPECT_GT(profile.operator_samples, 100u);
}

TEST_F(ReportsTest, AnnotatedPlanMentionsEveryOperator) {
  ProfilingConfig config;
  config.period = 300;
  ProfilingSession session(config);
  CompiledQuery query = RunProfiled(&session);
  OperatorProfile profile = BuildOperatorProfile(session, query);
  std::string plan = RenderAnnotatedPlan(profile, query);
  EXPECT_NE(plan.find("TheJoin"), std::string::npos);
  EXPECT_NE(plan.find("TheGroupBy"), std::string::npos);
  EXPECT_NE(plan.find("TableScan sales"), std::string::npos);
  EXPECT_NE(plan.find("%"), std::string::npos);
}

TEST_F(ReportsTest, AnnotatedListingShowsSamplesAndOwners) {
  ProfilingConfig config;
  config.period = 300;
  ProfilingSession session(config);
  CompiledQuery query = RunProfiled(&session);
  // The probe pipeline scans sales.
  uint32_t pipeline = 0;
  for (const PipelineArtifact& artifact : query.pipelines) {
    if (artifact.pipeline.name.find("sales") != std::string::npos) {
      pipeline = artifact.pipeline.id;
    }
  }
  std::string listing = RenderAnnotatedListing(session, query, pipeline);
  EXPECT_NE(listing.find("TheJoin"), std::string::npos);
  EXPECT_NE(listing.find("crc32"), std::string::npos);
  EXPECT_NE(listing.find("%"), std::string::npos);
  EXPECT_NE(listing.find("loopTuples"), std::string::npos);
}

TEST_F(ReportsTest, TimelineBucketsCoverAllOperatorSamples) {
  ProfilingConfig config;
  config.period = 300;
  ProfilingSession session(config);
  CompiledQuery query = RunProfiled(&session);
  ActivityTimeline timeline = BuildActivityTimeline(session, query, 24);
  EXPECT_EQ(timeline.bucket_samples.front().size(), 24u);
  double total = 0;
  for (const std::vector<double>& series : timeline.bucket_samples) {
    for (double v : series) {
      total += v;
    }
  }
  AttributionStats stats = session.Stats();
  EXPECT_DOUBLE_EQ(total,
                   static_cast<double>(stats.operator_samples + stats.kernel_samples));
  std::string chart = RenderActivityTimeline(timeline);
  EXPECT_NE(chart.find("TheGroupBy"), std::string::npos);
}

TEST_F(ReportsTest, MemoryProfileCapturesScanAndHashSeries) {
  ProfilingConfig config;
  config.event = PmuEvent::kLoads;
  config.period = 100;
  config.capture_address = true;
  ProfilingSession session(config);
  CompiledQuery query = RunProfiled(&session);
  MemoryProfile profile = BuildMemoryProfile(session, query);
  ASSERT_GE(profile.series.size(), 2u);
  for (const MemoryProfileSeries& series : profile.series) {
    EXPECT_FALSE(series.points.empty());
    EXPECT_LE(series.min_addr, series.max_addr);
    for (const auto& [tsc, addr] : series.points) {
      EXPECT_GE(addr, series.min_addr);
      EXPECT_LE(addr, series.max_addr);
      EXPECT_LE(tsc, session.execution_cycles());
    }
  }
  EXPECT_FALSE(RenderMemoryProfile(profile).empty());
}

TEST_F(ReportsTest, AttributionStatsRendering) {
  AttributionStats stats;
  stats.total = 1000;
  stats.operator_samples = 954;
  stats.kernel_samples = 26;
  stats.unattributed = 20;
  std::string table = RenderAttributionStats(stats);
  EXPECT_NE(table.find("95.4%"), std::string::npos);
  EXPECT_NE(table.find("2.6%"), std::string::npos);
  EXPECT_NE(table.find("2.0%"), std::string::npos);
  EXPECT_NE(table.find("98.0%"), std::string::npos);
}

TEST_F(ReportsTest, EmptySessionProducesEmptyButValidReports) {
  ProfilingConfig config;
  config.enable_sampling = false;
  ProfilingSession session(config);
  CompiledQuery query = RunProfiled(&session);
  OperatorProfile profile = BuildOperatorProfile(session, query);
  EXPECT_EQ(profile.operator_samples, 0u);
  EXPECT_FALSE(RenderAnnotatedPlan(profile, query).empty());
  ActivityTimeline timeline = BuildActivityTimeline(session, query, 8);
  EXPECT_EQ(timeline.bucket_samples.front().size(), 8u);
}

}  // namespace
}  // namespace dfp
