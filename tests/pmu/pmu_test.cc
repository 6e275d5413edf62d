#include <gtest/gtest.h>

#include "src/pmu/pmu.h"

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
