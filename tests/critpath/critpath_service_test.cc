// Critical-path wiring through the serving layer: each run's DAG and verdicts fold into the
// fleet tracker and the service profile (`crit` lines) at completion, and the governor
// samples on-path pipelines strictly finer than off-path ones under its overhead budget.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/critpath/report.h"
#include "src/service/query_service.h"
#include "src/service/service_profile.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

ServiceConfig BaseConfig() {
  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.session_state_bytes = 512ull * 1024;
  config.profiling.period = 311;
  return config;
}

std::unique_ptr<Database> MakeDb(const ServiceConfig& config) {
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  auto db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(*db, options);
  return db;
}

TicketId RunOne(QueryService& service, Database& db, const std::string& name) {
  const TicketId id = service.Submit(BuildQueryPlan(db, FindQuery(name)), name);
  service.Drain();
  return id;
}

TEST(CritPathService, TicketTrackerAndProfileCarryTheAnalysis) {
  const ServiceConfig config = BaseConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId first = RunOne(service, *db, "q6");
  const TicketId second = RunOne(service, *db, "q6");
  ASSERT_EQ(service.ticket(second).status, TicketStatus::kDone);

  // Both executions folded into the tracker under one structural fingerprint, with the last
  // one's per-pipeline shares and verdicts.
  const uint64_t fp = service.ticket(first).fingerprint.structure;
  const PlanCriticality* plan = service.criticality().Find(fp);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->executions, 2u);
  EXPECT_GT(plan->critical_work_cycles, 0u);
  EXPECT_GT(plan->top_share_pct, 0u);
  ASSERT_FALSE(plan->pipeline_share_pct.empty());
  EXPECT_EQ(plan->pipeline_labels.size(), plan->pipeline_share_pct.size());
  EXPECT_EQ(plan->pipeline_share_pct[plan->top_pipeline], plan->top_share_pct);
  EXPECT_EQ(service.criticality().CriticalWorkCycles(fp), plan->critical_work_cycles);
  const std::string report = RenderCriticalPath(service.criticality());
  EXPECT_NE(report.find("q6"), std::string::npos);
  EXPECT_NE(report.find(BottleneckName(plan->dominant_label())), std::string::npos);

  // The fleet profile carries the rollup and serializes it as a `crit` line.
  const FleetPlanProfile& fleet_plan = service.fleet_profile().plans().at(fp);
  EXPECT_EQ(fleet_plan.critical_cycles, plan->critical_work_cycles);
  EXPECT_FALSE(fleet_plan.bottleneck.empty());
  std::ostringstream out;
  WriteServiceProfile(service.fleet_profile(), service.windows(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\ncrit "), std::string::npos);

  // Round trip: the criticality fields reload, and the reloaded state re-serializes
  // byte-identically.
  std::istringstream in(text);
  WindowedProfile windows;
  ServiceProfile reread = ReadServiceProfile(in, &windows);
  EXPECT_EQ(reread.plans().at(fp).critical_cycles, fleet_plan.critical_cycles);
  EXPECT_EQ(reread.plans().at(fp).top_share_pct, fleet_plan.top_share_pct);
  EXPECT_EQ(reread.plans().at(fp).bottleneck, fleet_plan.bottleneck);
  std::ostringstream rewritten;
  WriteServiceProfile(reread, windows, rewritten);
  EXPECT_EQ(rewritten.str(), text);
}

TEST(CritPathService, GovernorSamplesOnPathPipelinesStrictlyFiner) {
  // The acceptance bar of the governor wiring: under the 2% overhead budget, the pipeline
  // that owns the critical path is armed with a strictly shorter period than the base and
  // than every off-path pipeline; below-mean pipelines relax so the redistribution stays
  // budget-neutral.
  ServiceConfig config = BaseConfig();
  config.continuous.governor.enabled = true;  // Default budget: 2%.
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId id = RunOne(service, *db, "q3");  // Multi-pipeline: builds + probe.
  RunOne(service, *db, "q3");  // Second execution runs with criticality-weighted periods.

  const uint64_t fp = service.ticket(id).fingerprint.structure;
  ASSERT_NE(service.governor().Find(fp), nullptr);
  const PlanCriticality* plan = service.criticality().Find(fp);
  ASSERT_NE(plan, nullptr);
  ASSERT_GT(plan->top_share_pct, 0u);
  const std::vector<uint64_t>& shares = plan->pipeline_share_pct;
  ASSERT_FALSE(shares.empty());

  const uint64_t base = service.governor().PeriodFor(fp, config.profiling.period);
  const std::vector<uint64_t> periods =
      service.governor().PipelinePeriods(shares, base, shares.size());
  ASSERT_EQ(periods.size(), shares.size());
  uint64_t mean_share = 0;
  for (const uint64_t share : shares) {
    mean_share += share;
  }
  mean_share /= shares.size();
  for (size_t p = 0; p < periods.size(); ++p) {
    const uint64_t share = shares[p];
    if (share > mean_share) {
      EXPECT_LT(periods[p], base) << "pipeline " << p << " owns the critical path";
    } else if (share < mean_share) {
      EXPECT_GT(periods[p], base) << "pipeline " << p << " is off the critical path";
    } else {
      EXPECT_EQ(periods[p], base) << "pipeline " << p << " sits at the mean";
    }
  }
  // The top-share pipeline gets the finest sampling of all, strictly finer than the base and
  // than every off-path (zero-share) pipeline.
  uint32_t top = 0;
  for (size_t p = 1; p < periods.size(); ++p) {
    if (shares[p] > shares[top]) {
      top = static_cast<uint32_t>(p);
    }
  }
  EXPECT_LT(periods[top], base);
  for (size_t p = 0; p < periods.size(); ++p) {
    EXPECT_LE(periods[top], periods[p]);
    if (shares[p] == 0) {
      EXPECT_LT(periods[top], periods[p]);
    }
  }
}

TEST(CritPathService, GovernorOffKeepsUniformSampling) {
  const ServiceConfig config = BaseConfig();  // Governor disabled.
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId id = RunOne(service, *db, "q6");
  const uint64_t fp = service.ticket(id).fingerprint.structure;
  // Criticality is still tracked (reports work), but sampling stays uniform.
  const PlanCriticality* plan = service.criticality().Find(fp);
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(service.governor()
                  .PipelinePeriods(plan->pipeline_share_pct, config.profiling.period, 4)
                  .empty());
}

}  // namespace
}  // namespace dfp
