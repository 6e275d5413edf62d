// Property test for Register Tagging under concurrency (paper Section 6.3 applied to the
// morsel-parallel engine): with every generated instruction tagged, the IP-derived attribution
// must agree with each worker's own tag register for every sample on every worker — the tag
// register is per-VCPU state, so no worker may ever observe another worker's tag.
#include <gtest/gtest.h>

#include "src/engine/query_engine.h"
#include "src/profiling/validation.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

Database* SuiteDb() {
  static Database* db = [] {
    auto* instance = new Database();
    TpchOptions options;
    options.scale = 0.002;
    GenerateTpch(*instance, options);
    return instance;
  }();
  return db;
}

class ParallelValidation : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelValidation, ValidationModeCleanOnEveryWorker) {
  const QuerySpec& spec = FindQuery(GetParam());
  Database& db = *SuiteDb();
  QueryEngine engine(&db);

  ProfilingConfig config;
  config.period = 311;
  config.tag_all_instructions = true;
  ProfilingSession session(config);
  CodegenOptions options;
  options.parallel = true;
  CompiledQuery query =
      engine.Compile(BuildQueryPlan(db, spec), &session, spec.name + "_pv", options);

  ParallelConfig pool;
  pool.workers = 4;
  pool.morsel_rows = 256;  // Force multi-morsel dispatch even at test scale.
  engine.ExecuteParallel(query, pool);
  session.Resolve(db.code_map());
  ASSERT_EQ(session.worker_count(), 4u);

  std::vector<ValidationReport> reports = CrossCheckAttributionPerWorker(session, db.code_map());
  ASSERT_EQ(reports.size(), 4u);
  uint64_t workers_with_checks = 0;
  for (size_t w = 0; w < reports.size(); ++w) {
    EXPECT_EQ(reports[w].mismatches, 0u) << spec.name << " worker " << w;
    workers_with_checks += reports[w].checked > 0 ? 1 : 0;
  }
  // The scan is morsel-parallel, so more than one worker must have produced checkable samples.
  EXPECT_GT(workers_with_checks, 1u) << spec.name;

  // The per-worker split is a partition of the whole-session cross-check.
  ValidationReport combined = CrossCheckAttribution(session, db.code_map());
  uint64_t checked = 0;
  for (const ValidationReport& report : reports) {
    checked += report.checked;
  }
  EXPECT_EQ(checked, combined.checked) << spec.name;
  EXPECT_GT(combined.checked, 0u) << spec.name;
}

std::vector<std::string> Names() {
  std::vector<std::string> names;
  for (const QuerySpec& spec : TpchQuerySuite()) {
    names.push_back(spec.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelValidation, ::testing::ValuesIn(Names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace dfp
