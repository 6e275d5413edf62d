#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <vector>

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
  // A full region is an error a query can cause, not an engine bug.
  EXPECT_THROW(mem.Alloc(region, 1), Error);
  // Sizes whose sum with the current offset or base wraps past 2^64 must not pass as small.
  EXPECT_THROW(mem.Alloc(region, ~uint64_t{0} - 15), Error);
  // 2^64 - 101 bytes wraps once next_base() exceeds 100.
  mem.CreateRegion("pad", 4096);
  EXPECT_DEATH(mem.CreateRegion("wrapped", ~uint64_t{0} - 100), "DFP_CHECK");
}

TEST(VMem, FullRegionErrorNamesTheRegion) {
  VMem mem(1 << 20);
  uint32_t region = mem.CreateRegion("hashtables", 64);
  mem.Alloc(region, 40);
  try {
    mem.Alloc(region, 32);
    FAIL() << "a full region must throw";
  } catch (const Error& error) {
    EXPECT_STREQ(error.what(),
                 "region 'hashtables' is full: 32 bytes requested, 40 of 64 bytes used");
  }
  // The failed request took nothing.
  EXPECT_EQ(mem.region(region).used, 40u);
}

TEST(VMem, DeathOnWrappedAddress) {
  VMem mem(1 << 20);
  // A null base plus displacement -8: the access's end wraps to 0, just before the arena.
  const VAddr wrapped = ~uint64_t{0} - 7;
  EXPECT_DEATH(mem.Read<uint64_t>(wrapped), "DFP_CHECK");
  EXPECT_DEATH(mem.Write<uint64_t>(wrapped, 1), "DFP_CHECK");
}

TEST(VMem, DeathOnWriteBytesPastTheArena) {
  VMem mem(1 << 20);
  const uint8_t bytes[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  // The range starts inside the arena and ends past it.
  EXPECT_DEATH(mem.WriteBytes((1 << 20) - 8, bytes, sizeof(bytes)), "DFP_CHECK");
  // The range's end wraps past 2^64: from a null base plus displacement -8, and by length.
  EXPECT_DEATH(mem.WriteBytes(~uint64_t{0} - 7, bytes, sizeof(bytes)), "DFP_CHECK");
  EXPECT_DEATH(mem.WriteBytes(64, bytes, ~uint64_t{0} - 15), "DFP_CHECK");
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

TEST(VMem, ResetCommitsOnlyWrittenPages) {
  // One reservation the size of a hash table sized for its row bound, written sparsely.
  constexpr uint64_t kReserved = 64ull << 20;
  constexpr uint64_t kStride = 4ull << 20;
  const uint64_t before = ResidentBytes();
  VMem mem(kReserved + 4096);
  const uint32_t region = mem.CreateRegion("hashtables", kReserved);
  for (int round = 0; round < 2; ++round) {
    const VAddr table = mem.Alloc(region, kReserved);
    for (uint64_t offset = 0; offset < kReserved; offset += kStride) {
      mem.Write<uint64_t>(table + offset, offset + 1);
    }
    mem.ResetRegion(region);
    for (uint64_t offset = 0; offset < kReserved; offset += kStride) {
      EXPECT_EQ(mem.Read<uint64_t>(table + offset), 0u) << "round " << round << " +" << offset;
    }
  }
  // Sixteen written pages, not the 64 MiB the reservation covers.
  EXPECT_LT(ResidentBytes(), before + (8ull << 20));
}

TEST(VMem, ResetSparesANeighbourOnASharedPage) {
  VMem mem(1 << 20);
  // The boundary between the two regions falls mid-page: the first starts after the 64
  // reserved bytes and ends at byte 2112 of the arena's first page.
  const uint32_t first = mem.CreateRegion("first", 2048);
  const uint32_t second = mem.CreateRegion("second", 8192);
  ASSERT_EQ(mem.region(second).base / kDirtyPageBytes, 0u);
  const VAddr a = mem.Alloc(first, 2048);
  const VAddr b = mem.Alloc(second, 8192);
  mem.Write<uint64_t>(a, 11);
  mem.Write<uint64_t>(a + 2040, 12);
  mem.Write<uint64_t>(b, 21);
  mem.Write<uint64_t>(b + 4096, 22);

  mem.ResetRegion(first);
  EXPECT_EQ(mem.Read<uint64_t>(a), 0u);
  EXPECT_EQ(mem.Read<uint64_t>(a + 2040), 0u);
  EXPECT_EQ(mem.Read<uint64_t>(b), 21u);
  EXPECT_EQ(mem.Read<uint64_t>(b + 4096), 22u);

  // The shared page kept its mark through a second round of the first region, so the
  // neighbour's own reset below still zeroes the neighbour's bytes on it.
  EXPECT_EQ(mem.Alloc(first, 2048), a);
  mem.Write<uint64_t>(a + 8, 13);
  mem.ResetRegion(first);
  EXPECT_EQ(mem.Read<uint64_t>(a + 8), 0u);
  EXPECT_EQ(mem.Read<uint64_t>(b), 21u);

  mem.ResetRegion(second);
  EXPECT_EQ(mem.Read<uint64_t>(b), 0u);
  EXPECT_EQ(mem.Read<uint64_t>(b + 4096), 0u);
}

TEST(VMem, WritesAcrossAPageBoundaryAreReset) {
  VMem mem(1 << 20);
  const uint32_t region = mem.CreateRegion("r", 64 * 1024);
  const VAddr base = mem.Alloc(region, 48 * 1024);
  // An 8-byte write whose last four bytes fall on the next page.
  const VAddr straddle = 3 * kDirtyPageBytes - 4;
  mem.Write<uint64_t>(straddle, ~uint64_t{0});
  // A run of bytes over three pages: the tail of one, a whole page and the head of the next.
  const VAddr run = 5 * kDirtyPageBytes - 10;
  const std::vector<uint8_t> bytes(kDirtyPageBytes + 20, 0xAB);
  mem.WriteBytes(run, bytes.data(), bytes.size());
  EXPECT_EQ(mem.Read<uint8_t>(straddle + 7), 0xFF);
  EXPECT_EQ(mem.Read<uint8_t>(run + kDirtyPageBytes), 0xAB);

  mem.ResetRegion(region);
  for (VAddr addr = base; addr < base + 48 * 1024; ++addr) {
    ASSERT_EQ(mem.Read<uint8_t>(addr), 0u) << "byte " << addr;
  }
}

}  // namespace
}  // namespace dfp
