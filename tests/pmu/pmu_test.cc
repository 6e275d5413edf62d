#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/pmu/pmu.h"
#include "src/util/random.h"

namespace dfp {
namespace {

TEST(Pmu, CountsAllEventsRegardlessOfArming) {
  Pmu pmu;
  pmu.Tick(PmuEvent::kInstrRetired, 10);
  pmu.Tick(PmuEvent::kLoads, 3);
  EXPECT_EQ(pmu.counters()[PmuEvent::kInstrRetired], 10u);
  EXPECT_EQ(pmu.counters()[PmuEvent::kLoads], 3u);
}

TEST(Pmu, SamplingFiresAtPeriod) {
  Pmu pmu;
  SamplingConfig config;
  config.enabled = true;
  config.event = PmuEvent::kInstrRetired;
  config.period = 100;
  pmu.Configure(config);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    fired += pmu.Tick(PmuEvent::kInstrRetired);
  }
  EXPECT_EQ(fired, 10);
}

TEST(Pmu, DisabledSamplingNeverFires) {
  Pmu pmu;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(pmu.Tick(PmuEvent::kInstrRetired));
  }
}

TEST(Pmu, OnlyArmedEventTriggers) {
  Pmu pmu;
  SamplingConfig config;
  config.enabled = true;
  config.event = PmuEvent::kLoads;
  config.period = 10;
  pmu.Configure(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(pmu.Tick(PmuEvent::kInstrRetired));
  }
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    fired += pmu.Tick(PmuEvent::kLoads);
  }
  EXPECT_EQ(fired, 10);
}

TEST(Pmu, RecordCostsGrowWithCapturedState) {
  Pmu base;
  SamplingConfig config;
  config.enabled = true;
  base.Configure(config);
  uint64_t plain = base.Record(Sample{});

  SamplingConfig reg_config = config;
  reg_config.capture_registers = true;
  Pmu with_regs;
  with_regs.Configure(reg_config);
  uint64_t with_registers = with_regs.Record(Sample{});

  SamplingConfig stack_config = config;
  stack_config.capture_callstack = true;
  Pmu with_stack;
  with_stack.Configure(stack_config);
  Sample stack_sample;
  stack_sample.callstack = {1, 2, 3};
  uint64_t with_callstack = with_stack.Record(std::move(stack_sample));

  EXPECT_LT(plain, with_registers);
  EXPECT_LT(with_registers, with_callstack);
  EXPECT_GT(with_callstack, 10 * with_registers);  // Order-of-magnitude gap, as in the paper.
}

TEST(Pmu, BufferFlushChargedPeriodically) {
  Pmu pmu;
  SamplingConfig config;
  config.enabled = true;
  pmu.Configure(config);
  uint64_t total = 0;
  for (uint64_t i = 0; i < 2 * kPebsBufferSamples; ++i) {
    total += pmu.Record(Sample{});
  }
  EXPECT_EQ(total, 2 * kPebsBufferSamples * kRecordCycles + 2 * kBufferFlushCycles);
  EXPECT_EQ(pmu.overhead().flushes, 2u);
}

TEST(Pmu, SampleBytesAccounting) {
  SamplingConfig config;
  EXPECT_EQ(config.SampleBytes(), 16u);
  config.capture_address = true;
  EXPECT_EQ(config.SampleBytes(), 24u);
  config.capture_registers = true;
  EXPECT_EQ(config.SampleBytes(), 24u + 128u);
  config.capture_callstack = true;
  EXPECT_EQ(config.SampleBytes(5), 24u + 128u + 8u + 40u);
}

// Ticks `single` one INSTR_RETIRED at a time and `batched` in random batches cut at its
// InstrRetiredBudget(), `total` ticks each. Both must agree after every batch on the counters and
// the armed state (seen through the budget), and fire on the same ticks.
void ExpectBatchesMatchSingleTicks(Pmu& single, Pmu& batched, Random& rng, uint64_t total) {
  std::vector<uint64_t> single_fires;
  std::vector<uint64_t> batched_fires;
  uint64_t done = 0;
  while (done < total) {
    const uint64_t cap = std::min<uint64_t>(batched.InstrRetiredBudget(), total - done);
    const uint64_t n = std::min<uint64_t>(cap, static_cast<uint64_t>(rng.Uniform(1, 300)));
    for (uint64_t i = 1; i <= n; ++i) {
      if (single.Tick(PmuEvent::kInstrRetired)) {
        single_fires.push_back(done + i);
      }
    }
    if (batched.Tick(PmuEvent::kInstrRetired, n)) {
      batched_fires.push_back(done + n);
    }
    done += n;
    ASSERT_EQ(batched.counters()[PmuEvent::kInstrRetired],
              single.counters()[PmuEvent::kInstrRetired]);
    ASSERT_EQ(batched.InstrRetiredBudget(), single.InstrRetiredBudget());
  }
  EXPECT_EQ(batched_fires, single_fires);
}

SamplingConfig InstrRetiredEvery(uint64_t period) {
  SamplingConfig config;
  config.enabled = true;
  config.event = PmuEvent::kInstrRetired;
  config.period = period;
  return config;
}

TEST(Pmu, BatchedTicksWithinBudgetEqualSingleTicks) {
  Random rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const uint64_t period = static_cast<uint64_t>(rng.Uniform(1, 400));
    Pmu single;
    Pmu batched;
    single.Configure(InstrRetiredEvery(period));
    batched.Configure(InstrRetiredEvery(period));
    EXPECT_EQ(batched.InstrRetiredBudget(), period);
    ExpectBatchesMatchSingleTicks(single, batched, rng, 20 * period + 17);
    EXPECT_EQ(batched.counters()[PmuEvent::kInstrRetired], 20 * period + 17);
  }
}

TEST(Pmu, BatchedTicksAfterLoweringThePeriod) {
  Random rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const uint64_t period = static_cast<uint64_t>(rng.Uniform(50, 400));
    Pmu single;
    Pmu batched;
    single.Configure(InstrRetiredEvery(period));
    batched.Configure(InstrRetiredEvery(period));
    const uint64_t armed = static_cast<uint64_t>(rng.Uniform(10, static_cast<int64_t>(period) - 1));
    ExpectBatchesMatchSingleTicks(single, batched, rng, armed);
    // The new period lies at or below the armed counter: the next tick fires.
    const uint64_t lower = static_cast<uint64_t>(rng.Uniform(1, static_cast<int64_t>(armed)));
    single.set_period(lower);
    batched.set_period(lower);
    EXPECT_EQ(batched.InstrRetiredBudget(), 1u);
    ExpectBatchesMatchSingleTicks(single, batched, rng, 10 * lower + 3);
  }
}

TEST(Pmu, BatchedTicksWhileSamplingIsDisabled) {
  Random rng(13);
  Pmu single;
  Pmu batched;
  EXPECT_EQ(batched.InstrRetiredBudget(), UINT64_MAX);
  ExpectBatchesMatchSingleTicks(single, batched, rng, 5000);
}

TEST(Pmu, BatchedTicksWhileAnotherEventIsArmed) {
  Random rng(17);
  SamplingConfig config = InstrRetiredEvery(10);
  config.event = PmuEvent::kLoads;
  Pmu single;
  Pmu batched;
  single.Configure(config);
  batched.Configure(config);
  EXPECT_EQ(batched.InstrRetiredBudget(), UINT64_MAX);
  for (int round = 0; round < 20; ++round) {
    ExpectBatchesMatchSingleTicks(single, batched, rng, 97);
    EXPECT_EQ(batched.Tick(PmuEvent::kLoads), single.Tick(PmuEvent::kLoads));
  }
  EXPECT_EQ(batched.counters()[PmuEvent::kLoads], 20u);
}

TEST(Pmu, TakeSamplesDrains) {
  Pmu pmu;
  SamplingConfig config;
  config.enabled = true;
  pmu.Configure(config);
  pmu.Record(Sample{});
  pmu.Record(Sample{});
  EXPECT_EQ(pmu.TakeSamples().size(), 2u);
  EXPECT_TRUE(pmu.samples().empty());
}

}  // namespace
}  // namespace dfp
