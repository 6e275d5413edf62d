// Integration tests of Tailored Profiling: compile the paper's example query with a session,
// execute with sampling, and check sample attribution through all abstraction levels.
#include <gtest/gtest.h>

#include <map>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/profiling/validation.h"
#include "src/util/decimal.h"
#include "src/util/random.h"

namespace dfp {
namespace {

class ProfilingTest : public ::testing::Test {
 protected:
  ProfilingTest() : db(SmallConfig()), engine(&db) {
    Random rng(23);
    {
      TableBuilder products = db.CreateTableBuilder(
          {"products", {{"id", ColumnType::kInt64}, {"category", ColumnType::kString}}});
      for (int i = 0; i < 500; ++i) {
        products.BeginRow();
        products.SetI64(0, i);
        products.SetString(1, i % 3 == 0 ? "Chip" : "Other");
      }
      db.AddTable(products.Finish());
    }
    {
      TableBuilder sales = db.CreateTableBuilder({"sales",
                                                  {{"id", ColumnType::kInt64},
                                                   {"price", ColumnType::kDecimal},
                                                   {"vat_factor", ColumnType::kDecimal},
                                                   {"prod_costs", ColumnType::kDecimal}}});
      for (int i = 0; i < 20000; ++i) {
        sales.BeginRow();
        sales.SetI64(0, rng.Uniform(0, 499));
        sales.SetDecimal(1, rng.Uniform(100, 100000));
        sales.SetDecimal(2, rng.Uniform(100, 125));
        sales.SetDecimal(3, rng.Uniform(100, 5000));
      }
      db.AddTable(sales.Finish());
    }
  }

  static DatabaseConfig SmallConfig() {
    DatabaseConfig config;
    config.columns_bytes = 16ull << 20;
    config.strings_bytes = 1ull << 20;
    config.hashtables_bytes = 32ull << 20;
    config.output_bytes = 32ull << 20;
    return config;
  }

  // The paper's Figure 3 query.
  PhysicalOpPtr MakePaperPlan() {
    PlanBuilder products = PlanBuilder::Scan(db.table("products"));
    products.FilterBy(MakeBinary(
        BinOp::kEq, products.Col("category"),
        MakeLiteral(ColumnType::kString, static_cast<int64_t>(db.strings().Intern("Chip")))));
    PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
    sales.JoinWith(std::move(products), {"id"}, {"id"}, {}, JoinType::kInner, "HashJoin");
    ExprPtr ratio =
        MakeBinary(BinOp::kDiv,
                   MakeBinary(BinOp::kDiv, sales.Col("price"), sales.Col("vat_factor")),
                   sales.Col("prod_costs"));
    sales.GroupByKeys({"id"}, NamedExprs("r", MakeAggregate(AggOp::kAvg, std::move(ratio))),
                      "GroupBy s.id");
    return sales.Build();
  }

  Database db;
  QueryEngine engine;
};

TEST_F(ProfilingTest, RegisterTaggingAttributesNearlyEverything) {
  ProfilingConfig config;
  config.period = 500;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "paper");
  engine.Execute(query);
  session.Resolve(db.code_map());

  AttributionStats stats = session.Stats();
  ASSERT_GT(stats.total, 100u);
  // The paper reports 98% attribution (operators + kernel); we should be in that regime.
  double attributed = static_cast<double>(stats.operator_samples + stats.kernel_samples) /
                      static_cast<double>(stats.total);
  EXPECT_GT(attributed, 0.9);
  EXPECT_GT(stats.operator_samples, stats.kernel_samples);
  // Samples inside rt_ht_insert were disambiguated by the tag register.
  EXPECT_GT(stats.via_tag, 0u);
}

TEST_F(ProfilingTest, OperatorCostsMatchExpectations) {
  ProfilingConfig config;
  config.period = 500;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "paper");
  engine.Execute(query);
  session.Resolve(db.code_map());

  std::map<OperatorId, uint64_t> by_operator;
  for (const ResolvedSample& sample : session.resolved()) {
    if (sample.category == ResolvedSample::Category::kOperator) {
      by_operator[sample.op] += 1;
    }
  }
  // Locate operators by label.
  std::map<std::string, OperatorId> ids;
  for (PhysicalOp* op : PlanOperators(*query.plan)) {
    ids[op->label] = op->id;
  }
  uint64_t groupby = by_operator[ids.at("GroupBy s.id")];
  uint64_t join = by_operator[ids.at("HashJoin")];
  uint64_t scan_products = by_operator[ids.at("TableScan products")];
  // The aggregation (with its divisions) and the join dominate; the tiny filtered scan is cheap.
  EXPECT_GT(groupby, scan_products);
  EXPECT_GT(join, scan_products);
  EXPECT_GT(groupby + join, (scan_products + by_operator[ids.at("TableScan sales")]) / 2);
}

TEST_F(ProfilingTest, CallStackSamplingAttributesSharedCode) {
  ProfilingConfig config;
  config.period = 500;
  config.attribution = AttributionMode::kCallStack;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "paper_cs");
  engine.Execute(query);
  session.Resolve(db.code_map());
  AttributionStats stats = session.Stats();
  EXPECT_GT(stats.via_callstack, 0u);
  EXPECT_EQ(stats.via_tag, 0u);
  double attributed = static_cast<double>(stats.operator_samples + stats.kernel_samples) /
                      static_cast<double>(stats.total);
  EXPECT_GT(attributed, 0.9);
}

TEST_F(ProfilingTest, CallStackSamplingCostsMoreThanRegisterTagging) {
  auto run = [&](AttributionMode mode) {
    ProfilingConfig config;
    config.period = 2000;
    config.attribution = mode;
    ProfilingSession session(config);
    CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "overhead");
    engine.Execute(query);
    return session.execution_cycles();
  };
  uint64_t tagging = run(AttributionMode::kRegisterTagging);
  uint64_t callstack = run(AttributionMode::kCallStack);
  EXPECT_GT(callstack, tagging + tagging / 2);  // Order-of-magnitude more per sample.
}

TEST_F(ProfilingTest, UnattributedModeLeavesSharedCodeUnresolved) {
  ProfilingConfig config;
  config.period = 200;
  config.attribution = AttributionMode::kNone;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "none");
  engine.Execute(query);
  session.Resolve(db.code_map());
  // Runtime-segment samples stay unattributed without tags or stacks.
  bool saw_unattributed_runtime = false;
  for (const ResolvedSample& sample : session.resolved()) {
    const CodeSegment* segment = db.code_map().FindByIp(sample.ip);
    if (segment != nullptr && segment->kind == SegmentKind::kRuntime) {
      EXPECT_EQ(sample.category, ResolvedSample::Category::kUnattributed);
      saw_unattributed_runtime = true;
    }
  }
  EXPECT_TRUE(saw_unattributed_runtime);
}

TEST_F(ProfilingTest, ValidationModeHasZeroMismatches) {
  ProfilingConfig config;
  config.period = 197;  // Odd period: samples spread across all code.
  config.tag_all_instructions = true;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "validate");
  Result tagged_result = engine.Execute(query);
  session.Resolve(db.code_map());

  ValidationReport report = CrossCheckAttribution(session, db.code_map());
  EXPECT_GT(report.checked, 100u);
  EXPECT_EQ(report.mismatches, 0u);

  // Validation tagging must not change results.
  CompiledQuery plain = engine.Compile(MakePaperPlan(), nullptr, "plain");
  Result plain_result = engine.Execute(plain);
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(tagged_result, plain_result, /*ordered=*/false, &diff)) << diff;
}

TEST_F(ProfilingTest, TimestampsAreMonotonicAndPeriodic) {
  ProfilingConfig config;
  config.period = 5000;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "tsc");
  engine.Execute(query);
  const std::vector<Sample>& samples = session.samples();
  ASSERT_GT(samples.size(), 20u);
  uint64_t sum_delta = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].tsc, samples[i - 1].tsc);
    sum_delta += samples[i].tsc - samples[i - 1].tsc;
  }
  // Mean TSC delta tracks the sampling period (instructions ~ cycles within a small factor
  // because of memory latencies and the per-sample recording cost).
  double mean = static_cast<double>(sum_delta) / static_cast<double>(samples.size() - 1);
  EXPECT_GT(mean, 0.8 * 5000);
  EXPECT_LT(mean, 12.0 * 5000);
}

TEST_F(ProfilingTest, MemoryEventSamplesCarryPlausibleAddresses) {
  ProfilingConfig config;
  config.event = PmuEvent::kLoads;
  config.period = 200;
  config.capture_address = true;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "mem");
  engine.Execute(query);
  session.Resolve(db.code_map());
  size_t with_address = 0;
  for (const ResolvedSample& sample : session.resolved()) {
    if (sample.addr != 0) {
      ++with_address;
      const MemRegion* region = db.mem().FindRegion(sample.addr);
      ASSERT_NE(region, nullptr) << sample.addr;
      EXPECT_TRUE(region->name == "columns" || region->name == "hashtables" ||
                  region->name == "state" || region->name == "output" ||
                  region->name == "strings")
          << region->name;
    }
  }
  EXPECT_GT(with_address, 50u);
}

TEST_F(ProfilingTest, ProfilingDoesNotChangeResults) {
  CompiledQuery plain = engine.Compile(MakePaperPlan(), nullptr, "plain");
  Result expected = engine.Execute(plain);
  for (AttributionMode mode :
       {AttributionMode::kRegisterTagging, AttributionMode::kCallStack, AttributionMode::kNone}) {
    ProfilingConfig config;
    config.period = 300;
    config.attribution = mode;
    ProfilingSession session(config);
    CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "modes");
    Result result = engine.Execute(query);
    std::string diff;
    EXPECT_TRUE(Result::Equivalent(result, expected, /*ordered=*/false, &diff)) << diff;
  }
}

TEST_F(ProfilingTest, DictionaryCoversAllGeneratedInstructions) {
  ProfilingConfig config;
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(MakePaperPlan(), &session, "coverage");
  for (const PipelineArtifact& artifact : query.pipelines) {
    const CodeSegment& segment = db.code_map().segment(artifact.segment);
    for (const uint32_t ir_id : segment.ir_ids) {
      EXPECT_NE(session.dictionary().TasksOf(ir_id), nullptr)
          << "uncovered instruction in " << segment.name;
    }
  }
}

}  // namespace
}  // namespace dfp
