#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>

#include "src/vcpu/vmem.h"

namespace dfp {
namespace {

// Resident set size of this process in bytes (the second field of /proc/self/statm).
uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  EXPECT_TRUE(statm) << "cannot read /proc/self/statm";
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(VMem, RegionCarving) {
  VMem mem(1 << 20);
  uint32_t a = mem.CreateRegion("columns", 4096);
  uint32_t b = mem.CreateRegion("hashtables", 8192);
  EXPECT_NE(mem.region(a).base, 0u);  // Null page reserved.
  EXPECT_EQ(mem.region(b).base, mem.region(a).base + 4096);
  EXPECT_EQ(mem.regions().size(), 2u);
}

TEST(VMem, BumpAllocationRespectsAlignment) {
  VMem mem(1 << 20);
  uint32_t region = mem.CreateRegion("r", 4096);
  VAddr first = mem.Alloc(region, 3, 1);
  VAddr second = mem.Alloc(region, 8, 8);
  EXPECT_EQ(second % 8, 0u);
  EXPECT_GT(second, first);
}

TEST(VMem, ReadWriteRoundTrip) {
  VMem mem(1 << 20);
  uint32_t region = mem.CreateRegion("r", 4096);
  VAddr addr = mem.Alloc(region, 64);
  mem.Write<uint64_t>(addr, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(mem.Read<uint64_t>(addr), 0xDEADBEEFCAFEBABEull);
  mem.Write<int32_t>(addr + 8, -42);
  EXPECT_EQ(mem.Read<int32_t>(addr + 8), -42);
  mem.Write<uint8_t>(addr + 12, 0x7F);
  EXPECT_EQ(mem.Read<uint8_t>(addr + 12), 0x7F);
}

TEST(VMem, FindRegion) {
  VMem mem(1 << 20);
  uint32_t a = mem.CreateRegion("columns", 4096);
  VAddr addr = mem.Alloc(a, 16);
  const MemRegion* region = mem.FindRegion(addr);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->name, "columns");
  EXPECT_EQ(mem.FindRegion(1 << 19), nullptr);
}

TEST(VMem, DeathOnRegionOverflow) {
  VMem mem(1 << 20);
  uint32_t region = mem.CreateRegion("tiny", 16);
  mem.Alloc(region, 16);
  EXPECT_DEATH(mem.Alloc(region, 1), "DFP_CHECK");
  // Sizes whose sum with the current offset or base wraps past 2^64 must not pass as small.
  EXPECT_DEATH(mem.Alloc(region, ~uint64_t{0} - 15), "DFP_CHECK");
  // 2^64 - 101 bytes wraps once next_base() exceeds 100.
  mem.CreateRegion("pad", 4096);
  EXPECT_DEATH(mem.CreateRegion("wrapped", ~uint64_t{0} - 100), "DFP_CHECK");
}

TEST(VMem, DeathOnWrappedAddress) {
  VMem mem(1 << 20);
  // A null base plus displacement -8: the access's end wraps to 0, just before the arena.
  const VAddr wrapped = ~uint64_t{0} - 7;
  EXPECT_DEATH(mem.Read<uint64_t>(wrapped), "DFP_CHECK");
  EXPECT_DEATH(mem.Write<uint64_t>(wrapped, 1), "DFP_CHECK");
}

TEST(VMem, CapacityAboveTheLimitThrows) {
  // The cache model's narrow tags are exact only for addresses below kMaxVMemBytes.
  EXPECT_THROW({ VMem mem(kMaxVMemBytes + 1); }, Error);
  EXPECT_THROW({ VMem mem(~uint64_t{0}); }, Error);
}

TEST(VMem, UntouchedArenaIsNotResident) {
  constexpr uint64_t kTouchedPages = 16;
  constexpr uint64_t kStride = 60ull << 20;
  const uint64_t before = ResidentBytes();
  VMem mem(1ull << 30);
  uint32_t state = mem.CreateRegion("state", 4096);
  uint32_t sparse = mem.CreateRegion("sparse", kTouchedPages * kStride);
  for (uint64_t page = 0; page < kTouchedPages; ++page) {
    mem.Write<uint64_t>(mem.Alloc(sparse, kStride), page + 1);
  }
  EXPECT_LT(ResidentBytes(), before + (64ull << 20));

  // Fresh bytes read zero, on a touched page and on an untouched one.
  const VAddr base = mem.region(sparse).base;
  EXPECT_EQ(mem.Read<uint64_t>(base), 1u);
  EXPECT_EQ(mem.Read<uint64_t>(base + 8), 0u);
  EXPECT_EQ(mem.Read<uint64_t>(base + kStride / 2), 0u);
  // So do the bytes of a reset region.
  mem.Write<uint64_t>(mem.Alloc(state, 8), ~uint64_t{0});
  mem.ResetRegion(state);
  EXPECT_EQ(mem.Read<uint64_t>(mem.Alloc(state, 8)), 0u);
}

}  // namespace
}  // namespace dfp
