// Regression detection: baseline snapshots, drift thresholds, quietness on identical reruns,
// and the end-to-end service scenario (injected plan-mix shift on a shared fingerprint).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "src/continuous/regression.h"
#include "src/service/query_service.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

OperatorProfile MakeProfile(std::vector<std::tuple<OperatorId, std::string, uint64_t>> ops) {
  OperatorProfile profile;
  for (auto& [op, label, samples] : ops) {
    OperatorCost cost;
    cost.op = op;
    cost.label = std::move(label);
    cost.samples = samples;
    profile.operator_samples += samples;
    profile.operators.push_back(std::move(cost));
  }
  return profile;
}

PmuCounters MakeCounters(uint64_t loads, uint64_t remote) {
  PmuCounters counters;
  counters.values[static_cast<int>(PmuEvent::kLoads)] = loads;
  counters.values[static_cast<int>(PmuEvent::kRemoteDram)] = remote;
  return counters;
}

WindowConfig SmallConfig() {
  WindowConfig config;
  config.width_cycles = 1000;
  return config;
}

TEST(RegressionDetector, QuietOnIdenticalMix) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile mix = MakeProfile({{1, "Scan", 70}, {2, "HashJoin", 30}});
  windows.Record(0x1, "q", 10, mix, MakeCounters(100, 2), 5000, 50, 100);

  BaselineStore baseline;
  baseline.Snapshot(windows);
  ASSERT_FALSE(baseline.empty());

  // Same mix lands in a later window: nothing drifted.
  windows.Record(0x1, "q", 1010, mix, MakeCounters(100, 2), 5000, 50, 100);
  EXPECT_TRUE(DetectRegressions(baseline, windows).empty());
}

TEST(RegressionDetector, FiresOnOperatorShareShift) {
  WindowedProfile windows(SmallConfig());
  windows.Record(0x1, "q", 10, MakeProfile({{1, "Scan", 790}, {2, "HashJoin probe", 210}}),
                 MakeCounters(100, 2), 5000, 50, 100);
  BaselineStore baseline;
  baseline.Snapshot(windows);

  // The probe's share jumps 21% -> 38% in the next window, with enough sample mass that the
  // drift clears the noise margin.
  windows.Record(0x1, "q", 1010, MakeProfile({{1, "Scan", 620}, {2, "HashJoin probe", 380}}),
                 MakeCounters(100, 2), 5000, 50, 100);
  auto findings = DetectRegressions(baseline, windows);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].share_regressed);
  ASSERT_EQ(findings[0].drifts.size(), 2u);
  const OperatorDrift& probe = findings[0].drifts[1];
  EXPECT_EQ(probe.label, "HashJoin probe");
  EXPECT_TRUE(probe.flagged);
  EXPECT_NEAR(probe.baseline_share, 0.21, 1e-9);
  EXPECT_NEAR(probe.current_share, 0.38, 1e-9);

  const std::string report = RenderRegressionReport(findings);
  EXPECT_NE(report.find("HashJoin probe"), std::string::npos);
  EXPECT_NE(report.find("mix"), std::string::npos);
  EXPECT_NE(report.find("+17.0pp"), std::string::npos);
}

TEST(RegressionDetector, FiresOnCyclesPerRowAndRemoteShare) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile mix = MakeProfile({{1, "Scan", 100}});
  windows.Record(0x1, "q", 10, mix, MakeCounters(100, 1), 5000, 50, 100);
  BaselineStore baseline;
  baseline.Snapshot(windows);

  // Same mix, but 2x the cycles per row and a remote-DRAM surge.
  windows.Record(0x1, "q", 1010, mix, MakeCounters(100, 30), 10000, 50, 100);
  auto findings = DetectRegressions(baseline, windows);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].share_regressed);
  EXPECT_TRUE(findings[0].cycles_per_row_regressed);
  EXPECT_TRUE(findings[0].remote_regressed);
  const std::string report = RenderRegressionReport(findings);
  EXPECT_NE(report.find("cycles/row"), std::string::npos);
  EXPECT_NE(report.find("+remote"), std::string::npos);
}

TEST(RegressionDetector, FindingsCarryTheShardIdIntoTheAlertHook) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile mix = MakeProfile({{1, "Scan", 100}});
  windows.Record(0x1, "q", 10, mix, MakeCounters(100, 1), 5000, 50, 100);
  BaselineStore baseline;
  baseline.Snapshot(windows);
  windows.Record(0x1, "q", 1010, mix, MakeCounters(100, 30), 10000, 50, 100);

  // The shard id is stamped on the finding BEFORE the alert hook fires, so fleet-wide sinks
  // can name the regressed node.
  std::vector<RegressionFinding> alerted;
  auto findings = DetectRegressions(
      baseline, windows, RegressionThresholds(),
      [&alerted](const RegressionFinding& finding) { alerted.push_back(finding); }, 3);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].shard_id, 3u);
  ASSERT_EQ(alerted.size(), 1u);
  EXPECT_EQ(alerted[0].shard_id, 3u);

  // The unsharded default keeps shard_id 0 (no suffix in the default alert line).
  EXPECT_EQ(DetectRegressions(baseline, windows)[0].shard_id, 0u);
}

TEST(RegressionDetector, NoiseMarginSuppressesSparseSampleJitter) {
  WindowedProfile windows(SmallConfig());
  // Dense baseline: Scan at 30% of 1000 samples.
  windows.Record(0x1, "q", 10, MakeProfile({{1, "Scan", 300}, {2, "Agg", 700}}),
                 MakeCounters(100, 2), 5000, 50, 100);
  BaselineStore baseline;
  baseline.Snapshot(windows);

  // Sparse current window (50 samples): Scan measures 18% — a 12pp apparent drift, but at
  // this sample mass the two-proportion error alone is ~7pp, so z=3 suppresses it.
  windows.Record(0x1, "q", 1010, MakeProfile({{1, "Scan", 9}, {2, "Agg", 41}}),
                 MakeCounters(100, 2), 5000, 50, 100);
  EXPECT_TRUE(DetectRegressions(baseline, windows).empty());

  // The same 12pp drift with dense evidence on both sides fires.
  WindowedProfile dense(SmallConfig());
  dense.Record(0x2, "q", 10, MakeProfile({{1, "Scan", 3000}, {2, "Agg", 7000}}),
               MakeCounters(100, 2), 5000, 50, 100);
  BaselineStore dense_baseline;
  dense_baseline.Snapshot(dense);
  dense.Record(0x2, "q", 1010, MakeProfile({{1, "Scan", 1800}, {2, "Agg", 8200}}),
               MakeCounters(100, 2), 5000, 50, 100);
  auto findings = DetectRegressions(dense_baseline, dense);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].share_regressed);
}

TEST(RegressionDetector, MinSamplesSuppressesQuantizationNoise) {
  WindowedProfile windows(SmallConfig());
  windows.Record(0x1, "q", 10, MakeProfile({{1, "Scan", 800}, {2, "Agg", 200}}),
                 MakeCounters(10, 0), 1000, 10, 100);
  BaselineStore baseline;
  baseline.Snapshot(windows);

  // Three samples total: shares are garbage, and below min_samples the window is skipped.
  windows.Record(0x1, "q", 1010, MakeProfile({{1, "Scan", 1}, {2, "Agg", 2}}),
                 MakeCounters(10, 0), 1000, 10, 100);
  EXPECT_TRUE(DetectRegressions(baseline, windows).empty());
}

TEST(RegressionDetector, DisappearedAndNewOperatorsBothDiff) {
  WindowedProfile windows(SmallConfig());
  windows.Record(0x1, "q", 10, MakeProfile({{1, "Scan", 50}, {2, "Sort", 50}}),
                 MakeCounters(10, 0), 1000, 10, 100);
  BaselineStore baseline;
  baseline.Snapshot(windows);
  windows.Record(0x1, "q", 1010, MakeProfile({{1, "Scan", 50}, {3, "HashAgg", 50}}),
                 MakeCounters(10, 0), 1000, 10, 100);
  auto findings = DetectRegressions(baseline, windows);
  ASSERT_EQ(findings.size(), 1u);
  // Sort (50% -> 0) and HashAgg (0 -> 50%) both appear, flagged.
  ASSERT_EQ(findings[0].drifts.size(), 3u);
  EXPECT_EQ(findings[0].drifts[1].label, "Sort");
  EXPECT_TRUE(findings[0].drifts[1].flagged);
  EXPECT_DOUBLE_EQ(findings[0].drifts[1].current_share, 0.0);
  EXPECT_EQ(findings[0].drifts[2].label, "HashAgg");
  EXPECT_TRUE(findings[0].drifts[2].flagged);
}

// --- The guard policy: JudgeRegression weighs cycles/row and remote share, never the mix ---

// A window ring holding one baseline execution of fingerprint 0x1 (5000 cycles over 50 rows,
// 2 of 100 loads remote, 1000 samples), snapshotted, plus one post-apply execution.
GuardVerdict JudgeOneRun(const OperatorProfile& after, uint64_t after_cycles,
                         uint64_t after_remote,
                         const RegressionThresholds& thresholds = RegressionThresholds()) {
  WindowedProfile windows(SmallConfig());
  windows.Record(0x1, "q", 10, MakeProfile({{1, "Scan", 790}, {2, "HashJoin probe", 210}}),
                 MakeCounters(100, 2), 5000, 50, 100);
  const std::optional<PlanBaseline> baseline = SnapshotPlanBaseline(windows, 0x1);
  EXPECT_TRUE(baseline.has_value());
  windows.Record(0x1, "q", 1010, after, MakeCounters(100, after_remote), after_cycles, 50, 100);
  return JudgeRegression(*baseline, windows, thresholds);
}

TEST(RegressionGuard, OperatorMixShiftWithFlatCountersIsClean) {
  // The same 21% -> 38% probe shift DetectRegressions flags as a mix regression: a guarded
  // action may move cost between operators on purpose, so the guard keeps it.
  const OperatorProfile shifted = MakeProfile({{1, "Scan", 620}, {2, "HashJoin probe", 380}});
  EXPECT_EQ(JudgeOneRun(shifted, 5000, 2), GuardVerdict::kClean);
}

TEST(RegressionGuard, CyclesPerRowAboveRatioRegresses) {
  const OperatorProfile mix = MakeProfile({{1, "Scan", 790}, {2, "HashJoin probe", 210}});
  // 1.24x the baseline's cycles/row stays under the 1.25x ratio; 1.30x crosses it.
  EXPECT_EQ(JudgeOneRun(mix, 6200, 2), GuardVerdict::kClean);
  EXPECT_EQ(JudgeOneRun(mix, 6500, 2), GuardVerdict::kRegressed);
}

TEST(RegressionGuard, RemoteShareRiseAboveDriftRegresses) {
  const OperatorProfile mix = MakeProfile({{1, "Scan", 790}, {2, "HashJoin probe", 210}});
  // Remote share 0.02 -> 0.11 is a 0.09 rise, under the default 0.10; 0.02 -> 0.13 is over.
  EXPECT_EQ(JudgeOneRun(mix, 5000, 11), GuardVerdict::kClean);
  EXPECT_EQ(JudgeOneRun(mix, 5000, 13), GuardVerdict::kRegressed);
  RegressionThresholds tight;
  tight.remote_share_drift = 0.05;
  EXPECT_EQ(JudgeOneRun(mix, 5000, 11, tight), GuardVerdict::kRegressed);
}

TEST(RegressionGuard, FewerPostApplySamplesThanMinSamplesIsInsufficient) {
  // 19 post-apply samples under the kRegressionMinSamples floor of 20, even with both rates
  // regressed.
  const OperatorProfile sparse = MakeProfile({{1, "Scan", 15}, {2, "HashJoin probe", 4}});
  EXPECT_EQ(JudgeOneRun(sparse, 50000, 90), GuardVerdict::kInsufficientEvidence);
  const OperatorProfile enough = MakeProfile({{1, "Scan", 16}, {2, "HashJoin probe", 4}});
  EXPECT_EQ(JudgeOneRun(enough, 50000, 90), GuardVerdict::kRegressed);
}

// --- End-to-end: the service scenario the CI determinism job runs ---

ServiceConfig ServiceTestConfig() {
  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.session_state_bytes = 512ull * 1024;
  config.profiling.period = 311;
  config.continuous.window.width_cycles = 5'000'000;
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

// q6 with much wider literals: same plan structure (same fingerprint), drastically different
// selectivity — the injected plan-mix shift.
constexpr const char* kShiftedQ6 =
    "select sum(l_extendedprice * l_discount) as revenue "
    "from lineitem "
    "where l_shipdate >= date '1992-01-01' and l_shipdate < date '1999-01-01' "
    "and l_discount between 0.00 and 0.10 and l_quantity < 100";

TEST(RegressionDetector, ServiceFlagsInjectedShiftAndStaysQuietOnRerun) {
  ServiceConfig config = ServiceTestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  auto run_batch = [&](const std::string& sql, int count) {
    for (int i = 0; i < count; ++i) {
      service.Submit(PlanSql(*db, sql), "q6");
      service.Drain();
    }
  };

  const std::string baseline_sql = FindQuery("q6").sql;
  run_batch(baseline_sql, 4);
  service.SnapshotBaseline();
  ASSERT_FALSE(service.baseline().empty());

  // Identical rerun first: the mix reproduces exactly, so the detector must stay quiet.
  run_batch(baseline_sql, 4);
  EXPECT_TRUE(service.DetectRegressions().empty());

  // Both SQL texts bind to the same structural fingerprint (literals parameterized out).
  const TicketId before = service.Submit(PlanSql(*db, baseline_sql), "q6");
  const TicketId shifted = service.Submit(PlanSql(*db, kShiftedQ6), "q6");
  service.Drain();
  ASSERT_EQ(service.ticket(before).fingerprint.structure,
            service.ticket(shifted).fingerprint.structure);

  // Injected shift: the wide-literal variant dominates recent windows.
  run_batch(kShiftedQ6, 4);
  auto findings = service.DetectRegressions();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].fingerprint, service.ticket(before).fingerprint.structure);
  EXPECT_TRUE(findings[0].share_regressed || findings[0].cycles_per_row_regressed ||
              findings[0].remote_regressed);
  EXPECT_NE(RenderRegressionReport(findings).find("q6"), std::string::npos);
}

}  // namespace
}  // namespace dfp
