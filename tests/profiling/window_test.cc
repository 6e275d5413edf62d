// Time-window drill-down (the paper's "limit the results to the time interval of the hotspot")
// and the machine-level listing.
#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/profiling/reports.h"
#include "src/util/random.h"
#include "src/vcpu/disasm.h"

namespace dfp {
namespace {

class WindowTest : public ::testing::Test {
 protected:
  WindowTest() : engine(&db) {
    Random rng(17);
    TableBuilder products = db.CreateTableBuilder(
        {"products", {{"id", ColumnType::kInt64}, {"w", ColumnType::kInt64}}});
    for (int i = 0; i < 200; ++i) {
      products.BeginRow();
      products.SetI64(0, i);
      products.SetI64(1, i * 3);
    }
    db.AddTable(products.Finish());
    TableBuilder sales = db.CreateTableBuilder(
        {"sales", {{"id", ColumnType::kInt64}, {"price", ColumnType::kDecimal}}});
    for (int i = 0; i < 20000; ++i) {
      sales.BeginRow();
      sales.SetI64(0, rng.Uniform(0, 199));
      sales.SetDecimal(1, rng.Uniform(1, 1000));
    }
    db.AddTable(sales.Finish());
  }

  CompiledQuery Run(ProfilingSession* session) {
    PlanBuilder products = PlanBuilder::Scan(db.table("products"));
    PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
    sales.JoinWith(std::move(products), {"id"}, {"id"}, {"w"}, JoinType::kInner, "TheJoin");
    sales.GroupByKeys({"w"}, NamedExprs("n", MakeAggregate(AggOp::kCountStar, nullptr)),
                      "TheGroupBy");
    CompiledQuery query = engine.Compile(sales.Build(), session, "windowed");
    engine.Execute(query);
    session->Resolve(db.code_map());
    return query;
  }

  Database db;
  QueryEngine engine;
};

TEST_F(WindowTest, WindowsPartitionTheProfile) {
  ProfilingConfig config;
  config.period = 200;
  ProfilingSession session(config);
  CompiledQuery query = Run(&session);
  const uint64_t total = session.execution_cycles();

  OperatorProfile whole = BuildOperatorProfile(session, query);
  TimeWindow first_half{0, total / 2};
  TimeWindow second_half{total / 2, ~0ull};
  OperatorProfile early = BuildOperatorProfile(session, query, first_half);
  OperatorProfile late = BuildOperatorProfile(session, query, second_half);

  EXPECT_EQ(early.operator_samples + late.operator_samples, whole.operator_samples);
  EXPECT_GT(early.operator_samples, 0u);
  EXPECT_GT(late.operator_samples, 0u);

  // The build pipeline (products scan) runs first: its samples live in the early window.
  OperatorId scan_products = 0;
  for (PhysicalOp* op : PlanOperators(*query.plan)) {
    if (op->label == "TableScan products") {
      scan_products = op->id;
    }
  }
  const OperatorCost* early_scan = early.Find(scan_products);
  const OperatorCost* late_scan = late.Find(scan_products);
  ASSERT_NE(early_scan, nullptr);
  ASSERT_NE(late_scan, nullptr);
  EXPECT_GE(early_scan->samples, late_scan->samples);
}

TEST_F(WindowTest, ListingHeaderCountsEverySampleOfItsPipeline) {
  ProfilingConfig config;
  config.period = 200;
  ProfilingSession session(config);
  CompiledQuery query = Run(&session);
  const uint32_t pipeline = static_cast<uint32_t>(query.pipelines.size() - 1);
  uint64_t samples = 0;
  for (const ResolvedSample& sample : session.resolved()) {
    samples += sample.segment == query.pipelines[pipeline].segment && sample.ir_id != kNoIrId;
  }
  ASSERT_GT(samples, 0u);
  // A listing covers the whole execution: its header counts every sample of the pipeline.
  EXPECT_NE(RenderAnnotatedListing(session, query, pipeline)
                .find(" — " + std::to_string(samples) + " samples in this pipeline"),
            std::string::npos);
}

TEST_F(WindowTest, MachineListingShowsSamplesAndIrIds) {
  ProfilingConfig config;
  config.period = 200;
  ProfilingSession session(config);
  CompiledQuery query = Run(&session);
  // Probe pipeline = the one scanning sales.
  uint32_t pipeline = 0;
  for (const PipelineArtifact& artifact : query.pipelines) {
    if (artifact.pipeline.name.find("sales") != std::string::npos) {
      pipeline = artifact.pipeline.id;
    }
  }
  std::string listing = RenderMachineListing(session, query, db.code_map(), pipeline);
  EXPECT_NE(listing.find("machine code"), std::string::npos);
  EXPECT_NE(listing.find("crc32"), std::string::npos);
  EXPECT_NE(listing.find("; ir %"), std::string::npos);
  EXPECT_NE(listing.find("%"), std::string::npos);
}

}  // namespace
}  // namespace dfp
