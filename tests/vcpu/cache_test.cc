#include <gtest/gtest.h>

#include "src/vcpu/branch_predictor.h"
#include "src/vcpu/cache.h"

namespace dfp {
namespace {

TEST(Cache, FirstAccessMissesThenHits) {
  CacheHierarchy cache;
  CacheAccessResult first = cache.Access(0x1000);
  EXPECT_EQ(first.hit_level, 4);  // Cold: served from memory.
  CacheAccessResult second = cache.Access(0x1000);
  EXPECT_EQ(second.hit_level, 1);
  EXPECT_LT(second.latency, first.latency);
}

TEST(Cache, SameLineHits) {
  CacheHierarchy cache;
  cache.Access(0x1000);
  EXPECT_EQ(cache.Access(0x1004).hit_level, 1);  // Same 64-byte line.
  EXPECT_EQ(cache.Access(0x103F).hit_level, 1);
  EXPECT_EQ(cache.Access(0x1040).hit_level, 4);  // Next line: cold.
}

TEST(Cache, L1EvictionFallsBackToL2) {
  CacheHierarchy cache;
  // Fill one L1 set beyond its associativity: lines mapping to the same set are spaced by
  // (sets * line) = (32KB / 8 ways) = 4KB.
  const uint64_t stride = kL1Cache.size_bytes / kL1Cache.ways;
  for (uint64_t i = 0; i < kL1Cache.ways + 1; ++i) {
    cache.Access(0x10000 + i * stride);
  }
  // The first line was evicted from L1 but still sits in L2.
  EXPECT_EQ(cache.Access(0x10000).hit_level, 2);
}

TEST(Cache, StatsCountMisses) {
  CacheHierarchy cache;
  for (int i = 0; i < 100; ++i) {
    cache.Access(static_cast<uint64_t>(i) * 64);
  }
  EXPECT_EQ(cache.stats().accesses, 100u);
  EXPECT_EQ(cache.stats().l1_misses, 100u);
  cache.Access(0);
  EXPECT_EQ(cache.stats().l1_misses, 100u);  // Hit: no new miss.
}

TEST(Cache, SequentialScanMostlyHits) {
  CacheHierarchy cache;
  uint64_t misses_before = cache.stats().l1_misses;
  for (uint64_t addr = 0; addr < 64 * 1024; addr += 8) {
    cache.Access(addr);
  }
  uint64_t misses = cache.stats().l1_misses - misses_before;
  // One miss per 64-byte line (8 accesses per line).
  EXPECT_EQ(misses, 1024u);
}

TEST(BranchPredictor, LearnsStableBranch) {
  BranchPredictor predictor;
  int misses = 0;
  for (int i = 0; i < 100; ++i) {
    misses += predictor.Branch(0x42, true);
  }
  EXPECT_LE(misses, 2);
}

TEST(BranchPredictor, AlternatingBranchMispredicts) {
  BranchPredictor predictor;
  int misses = 0;
  for (int i = 0; i < 100; ++i) {
    misses += predictor.Branch(0x42, i % 2 == 0);
  }
  EXPECT_GT(misses, 40);
}

TEST(BranchPredictor, IndependentSlots) {
  BranchPredictor predictor;
  for (int i = 0; i < 10; ++i) {
    predictor.Branch(0x100, true);
    predictor.Branch(0x200, false);
  }
  EXPECT_FALSE(predictor.Branch(0x100, true));
  EXPECT_FALSE(predictor.Branch(0x200, false));
}

}  // namespace
}  // namespace dfp
