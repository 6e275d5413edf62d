#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/util/random.h"
#include "src/vcpu/branch_predictor.h"
#include "src/vcpu/cache.h"

namespace dfp {
namespace {

// The age-stamped LRU the MRU-ordered CacheLevel replaced, kept as its oracle: each way holds
// {tag, age}, a hit restamps the way, and a miss refills the way with the smallest age (an
// invalid way has age 0, so the first invalid way fills first).
class AgeStampedLevel {
 public:
  explicit AgeStampedLevel(const CacheLevelConfig& config)
      : ways_(config.ways),
        set_count_(config.size_bytes / kCacheLineBytes / config.ways),
        lines_(config.size_bytes / kCacheLineBytes) {}

  bool Access(VAddr addr) {
    const uint64_t line_addr = addr / kCacheLineBytes;
    const uint64_t set = line_addr % set_count_;
    const uint64_t tag = line_addr / set_count_;
    Line* set_lines = &lines_[set * ways_];
    ++tick_;
    uint32_t victim = 0;
    uint64_t victim_age = ~0ull;
    for (uint32_t way = 0; way < ways_; ++way) {
      if (set_lines[way].tag == tag) {
        set_lines[way].age = tick_;
        return true;
      }
      if (set_lines[way].age < victim_age) {
        victim_age = set_lines[way].age;
        victim = way;
      }
    }
    set_lines[victim] = Line{tag, tick_};
    return false;
  }

 private:
  struct Line {
    uint64_t tag = ~0ull;
    uint64_t age = 0;
  };

  uint32_t ways_;
  uint64_t set_count_;
  uint64_t tick_ = 0;
  std::vector<Line> lines_;
};

class AgeStampedHierarchy {
 public:
  int Access(VAddr addr) {
    ++stats.accesses;
    if (l1_.Access(addr)) {
      return 1;
    }
    ++stats.l1_misses;
    if (l2_.Access(addr)) {
      return 2;
    }
    ++stats.l2_misses;
    if (l3_.Access(addr)) {
      return 3;
    }
    ++stats.l3_misses;
    return 4;
  }

  CacheStats stats;

 private:
  AgeStampedLevel l1_{kL1Cache};
  AgeStampedLevel l2_{kL2Cache};
  AgeStampedLevel l3_{kL3Cache};
};

// Feeds `count` addresses from `next` through a fresh hierarchy and the oracle.
void ExpectSameAsAgeStampedLru(uint64_t count, const std::function<VAddr(uint64_t)>& next) {
  CacheHierarchy cache;
  AgeStampedHierarchy oracle;
  for (uint64_t i = 0; i < count; ++i) {
    const VAddr addr = next(i);
    ASSERT_EQ(cache.Access(addr).hit_level, oracle.Access(addr)) << "access " << i;
  }
  EXPECT_EQ(cache.stats().accesses, oracle.stats.accesses);
  EXPECT_EQ(cache.stats().l1_misses, oracle.stats.l1_misses);
  EXPECT_EQ(cache.stats().l2_misses, oracle.stats.l2_misses);
  EXPECT_EQ(cache.stats().l3_misses, oracle.stats.l3_misses);
}

// Addresses spaced by one level's way span map to the same set of that level (and of every
// smaller level), so cycling through more of them than the level has ways overflows the set.
uint64_t WaySpan(const CacheLevelConfig& level) { return level.size_bytes / level.ways; }

// Bases for the oracle streams: as written, and moved to just below kMaxVMemBytes, where every
// address sets the top tag bits the narrow tags must keep. The high base is a multiple of every
// way span, so each stream keeps its set indices.
constexpr VAddr kStreamBases[] = {0, kMaxVMemBytes - (2ull << 30)};

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

TEST(Cache, RandomStreamMatchesAgeStampedLru) {
  // Hot and cold random lines: a 64 KiB hot range that mostly hits and a 32 MiB range (four
  // times L3) that mostly misses, interleaved.
  for (const VAddr base : kStreamBases) {
    SCOPED_TRACE(base);
    Random rng(7);
    ExpectSameAsAgeStampedLru(400000, [&](uint64_t) {
      const uint64_t range = rng.Chance(0.5) ? (64ull << 10) : (32ull << 20);
      return base + 0x100000 + rng.Next() % range;
    });
  }
}

TEST(Cache, SequentialStreamMatchesAgeStampedLru) {
  // Repeated 8-byte scans over 12 MiB (more than L3) and over 200 KiB (less than L2).
  for (const VAddr base : kStreamBases) {
    SCOPED_TRACE(base);
    ExpectSameAsAgeStampedLru(300000, [&](uint64_t i) {
      return base +
             (i < 200000 ? (i * 8) % (12ull << 20) : 0x40000000 + (i * 8) % (200ull << 10));
    });
  }
}

TEST(Cache, SameSetConflictStreamMatchesAgeStampedLru) {
  // For each level, cycle (ways - 2 ... ways + 3) lines of one set in random order, so the set
  // fills, overflows by a few lines, and hits on recently used ones.
  const CacheLevelConfig levels[] = {kL1Cache, kL2Cache, kL3Cache};
  for (const VAddr base : kStreamBases) {
    SCOPED_TRACE(base);
    Random rng(11);
    ExpectSameAsAgeStampedLru(400000, [&](uint64_t i) {
      const CacheLevelConfig& level = levels[(i / 20000) % 3];
      const uint64_t lines = level.ways - 2 + (i / 60000) % 6;
      const uint64_t set_offset = ((i / 20000) % 5) * kCacheLineBytes;
      return base + set_offset + (rng.Next() % lines) * WaySpan(level);
    });
  }
}

TEST(Cache, TopTagBitConflictStreamMatchesAgeStampedLru) {
  // 24 lines of one set, more than L3 has ways, in pairs that differ only in address bit 34: the
  // top L3 tag bit of an address below kMaxVMemBytes. A tag one bit narrower aliases each pair.
  static_assert(kMaxVMemBytes == 1ull << 35);
  Random rng(13);
  ExpectSameAsAgeStampedLru(200000, [&](uint64_t) {
    const uint64_t top_bit = rng.Chance(0.5) ? 1ull << 34 : 0;
    return top_bit + (rng.Next() % 12) * WaySpan(kL3Cache);
  });
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
