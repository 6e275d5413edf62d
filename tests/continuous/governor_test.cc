// SamplingGovernor: analytic convergence to the overhead budget on steady and bursty loads,
// clamping, and the zero-sample recovery path.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/continuous/governor.h"

namespace dfp {
namespace {

constexpr uint64_t kCps = kRecordCycles;  // Capture cost per sample.

// One simulated execution: with period `p` armed, `events` armed-event occurrences over
// `base` useful cycles cost (events / p) samples at kCps cycles each.
SamplingOverhead Simulate(uint64_t events, uint64_t p, uint64_t* busy, uint64_t base) {
  SamplingOverhead overhead;
  overhead.samples = events / p;
  overhead.capture_cycles = overhead.samples * kCps;
  *busy = base + overhead.total_cycles();
  return overhead;
}

// Overhead share of one simulated execution over `base` useful cycles.
double ObservedShare(const SamplingOverhead& overhead, uint64_t base) {
  return static_cast<double>(overhead.total_cycles()) / static_cast<double>(base);
}

GovernorConfig EnabledConfig() {
  GovernorConfig config;
  config.enabled = true;
  return config;
}

TEST(SamplingGovernor, DisabledGovernorPassesDefaultPeriodThrough) {
  SamplingGovernor governor;  // Default config: disabled.
  EXPECT_FALSE(governor.enabled());
  EXPECT_EQ(governor.PeriodFor(0x1, 5000), 5000u);
  SamplingOverhead overhead;
  governor.Observe(0x1, "q", overhead, 1000, 1000, 5000);
  EXPECT_TRUE(governor.plans().empty());
}

TEST(SamplingGovernor, ConvergesToBudgetOnSteadyLoad) {
  SamplingGovernor governor(EnabledConfig());
  const uint64_t events = 2'000'000;
  const uint64_t base = 200'000'000;
  uint64_t period = governor.PeriodFor(0x1, 5000);
  double last_share = 0;
  for (int round = 0; round < 6; ++round) {
    uint64_t busy = 0;
    SamplingOverhead overhead = Simulate(events, period, &busy, base);
    governor.Observe(0x1, "q6", overhead, busy, events, period);
    last_share = ObservedShare(overhead, base);
    period = governor.PeriodFor(0x1, 5000);
  }
  const GovernorPlanState* state = governor.Find(0x1);
  ASSERT_NE(state, nullptr);
  // Analytic optimum: events * cps / (budget * base) = 3350.
  EXPECT_NEAR(static_cast<double>(state->period), 3350.0, 100.0);
  // The last observed overhead share is within half a point of the 2% budget.
  EXPECT_NEAR(last_share, 0.02, 0.005);
}

TEST(SamplingGovernor, ConvergesToBudgetOnBurstyLoad) {
  SamplingGovernor governor(EnabledConfig());
  const uint64_t base = 200'000'000;
  uint64_t period = governor.PeriodFor(0x1, 5000);
  double last_share = 0;
  for (int round = 0; round < 24; ++round) {
    // Event density alternates 4x between bursts and quiet phases.
    const uint64_t events = (round % 2 == 0) ? 4'000'000 : 1'000'000;
    uint64_t busy = 0;
    SamplingOverhead overhead = Simulate(events, period, &busy, base);
    governor.Observe(0x1, "q6", overhead, busy, events, period);
    period = governor.PeriodFor(0x1, 5000);
    last_share = ObservedShare(overhead, base);
  }
  // The EWMA settles between the two phases' optima instead of oscillating to the rails, and
  // the cumulative overhead share lands within half a point of the budget.
  const GovernorPlanState* state = governor.Find(0x1);
  EXPECT_GT(state->period, 1675u);
  EXPECT_LT(state->period, 6700u);
  EXPECT_NEAR(state->OverheadShare(), 0.02, 0.005);
  EXPECT_NEAR(last_share, 0.02, 0.015);
}

TEST(SamplingGovernor, ClampsSolvedPeriodToConfiguredRange) {
  SamplingGovernor governor(EnabledConfig());

  // Absurdly expensive samples push the solve (5e7) far above the ceiling; the EWMA walks the
  // period up against it.
  SamplingOverhead costly;
  costly.samples = 100;
  costly.capture_cycles = 100ull * 1'000'000'000;
  for (int i = 0; i < 10; ++i) {
    governor.Observe(0x1, "q", costly, 200'000'000'000, 100'000'000, 5000);
  }
  EXPECT_GT(governor.Find(0x1)->period, kMaxSamplingPeriod * 9 / 10);
  EXPECT_LE(governor.Find(0x1)->period, kMaxSamplingPeriod);

  // Nearly free samples pull it below the floor.
  SamplingOverhead cheap;
  cheap.samples = 1000;
  cheap.capture_cycles = 1000;
  for (int i = 0; i < 8; ++i) {
    governor.Observe(0x2, "q", cheap, 2'000'000'000, 1'000'000, 1000);
  }
  EXPECT_EQ(governor.Find(0x2)->period, kMinSamplingPeriod);
}

TEST(SamplingGovernor, SolveTooLargeForAnyPeriodSaturatesAtTheCeiling) {
  // The smallest positive budget makes the analytic solve overflow to infinity; the period
  // saturates at the ceiling instead of overflowing the integer conversion.
  GovernorConfig config = EnabledConfig();
  config.overhead_budget = std::numeric_limits<double>::min();
  SamplingGovernor governor(config);
  uint64_t busy = 0;
  const SamplingOverhead overhead = Simulate(1'000'000, 5000, &busy, 100'000'000);
  for (int i = 0; i < 4; ++i) {
    governor.Observe(0x1, "q", overhead, busy, 1'000'000, 5000);
  }
  EXPECT_GT(governor.Find(0x1)->period, kMaxSamplingPeriod * 9 / 10);
  EXPECT_LE(governor.Find(0x1)->period, kMaxSamplingPeriod);
}

TEST(SamplingGovernor, HalvesPeriodWhenNoSamplesLanded) {
  SamplingGovernor governor(EnabledConfig());
  SamplingOverhead none;  // Period longer than the execution: zero samples.
  governor.Observe(0x1, "q", none, 1'000'000, 400'000, 1'000'000);
  // Target = 500000, blended with the initial 1000000 at 0.7: 650000.
  EXPECT_EQ(governor.Find(0x1)->period, 650'000u);
}

TEST(SamplingGovernor, TracksPerFingerprintStateIndependently) {
  SamplingGovernor governor(EnabledConfig());
  uint64_t busy = 0;
  SamplingOverhead a = Simulate(1'000'000, 5000, &busy, 100'000'000);
  governor.Observe(0x1, "small", a, busy, 1'000'000, 5000);
  SamplingOverhead b = Simulate(8'000'000, 5000, &busy, 100'000'000);
  governor.Observe(0x2, "large", b, busy, 8'000'000, 5000);
  ASSERT_EQ(governor.plans().size(), 2u);
  // The denser plan needs a coarser period for the same budget.
  EXPECT_GT(governor.Find(0x2)->period, governor.Find(0x1)->period);
  EXPECT_GT(governor.OverallShare(), 0.0);
}

TEST(SamplingGovernor, CriticalityWeightsPipelinePeriodsStrictly) {
  // Under a fixed budget, the pipeline that owns the critical path must be sampled at a
  // STRICTLY shorter period than the base and than every off-path pipeline — the acceptance
  // bar of the critical-path wiring. Shares mean-center (mean of {62, 0, 7} is 23), so the
  // redistribution is budget-neutral: below-mean pipelines give up exactly the sampling rate
  // the above-mean ones gain.
  SamplingGovernor governor(EnabledConfig());
  const uint64_t base = 5000;
  const std::vector<uint64_t> periods = governor.PipelinePeriods({62, 0, 7}, base, 3);
  ASSERT_EQ(periods.size(), 3u);
  EXPECT_LT(periods[0], base);   // 39 points above the mean: finest sampling.
  EXPECT_GT(periods[1], base);   // Off the path, 23 below the mean: relaxed beyond the base.
  EXPECT_GT(periods[2], base);   // Barely on the path, still below the mean: relaxed too.
  EXPECT_LT(periods[0], periods[2]);  // Higher share, strictly shorter period.
  EXPECT_LT(periods[2], periods[1]);  // ... at every rank of the share ordering.
  EXPECT_EQ(periods[0], base * 100 / 139);  // d = +39.
  EXPECT_EQ(periods[1], base * 100 / 77);   // d = -23.
}

TEST(SamplingGovernor, PipelinePeriodsEmptyWithoutSignalOrWhenDisabled) {
  // No criticality observed yet: uniform sampling (empty vector).
  SamplingGovernor governor(EnabledConfig());
  EXPECT_TRUE(governor.PipelinePeriods({}, 5000, 4).empty());

  // A degenerate all-zero observation (empty DAG) keeps sampling uniform too.
  EXPECT_TRUE(governor.PipelinePeriods({0, 0}, 5000, 2).empty());

  // Disabled governor: uniform sampling whatever the shares.
  SamplingGovernor disabled;
  EXPECT_TRUE(disabled.PipelinePeriods({80}, 5000, 1).empty());
}

TEST(SamplingGovernor, OffPathPeriodRespectsClampCeiling) {
  SamplingGovernor governor(EnabledConfig());
  const uint64_t base = 4'000'000;
  const std::vector<uint64_t> periods = governor.PipelinePeriods({90, 0}, base, 2);
  ASSERT_EQ(periods.size(), 2u);
  EXPECT_EQ(periods[1], kMaxSamplingPeriod);  // 4e6 * 100/55 = 7.27e6, clamped to the ceiling.
  EXPECT_GT(periods[1], base);  // Still strictly above the base.
  EXPECT_LT(periods[0], base);  // The critical pipeline is unaffected by the ceiling.
}

}  // namespace
}  // namespace dfp
