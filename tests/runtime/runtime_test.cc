#include <gtest/gtest.h>

#include <map>

#include "src/backend/compiler.h"
#include "src/ir/builder.h"
#include "src/runtime/hashtable.h"
#include "src/runtime/runtime.h"
#include "src/storage/stringheap.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/vcpu/cpu.h"

namespace dfp {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : mem(64ull << 20) {
    ht_region = mem.CreateRegion("hashtables", 16ull << 20);
    string_region = mem.CreateRegion("strings", 1ull << 20);
    runtime = std::make_unique<Runtime>(&code_map);
  }

  Cpu MakeCpu() { return Cpu(mem, code_map, pmu); }

  VMem mem;
  CodeMap code_map;
  Pmu pmu;
  uint32_t ht_region = 0;
  uint32_t string_region = 0;
  std::unique_ptr<Runtime> runtime;
};

TEST_F(RuntimeTest, InsertLinksEntriesAndCounts) {
  VAddr table = CreateHashTable(mem, ht_region, 64, 16);
  Cpu cpu = MakeCpu();
  std::map<uint64_t, VAddr> inserted;
  for (uint64_t key = 0; key < 50; ++key) {
    uint64_t hash = HashKey(key);
    uint64_t args[] = {table, hash};
    VAddr entry = cpu.CallFunction(runtime->ht_insert_fn(), args);
    ASSERT_NE(entry, 0u);
    // Payload: store the key so we can validate chains later.
    mem.Write<uint64_t>(entry + kHtEntryPayload, key);
    inserted[hash] = entry;
  }
  HashTableView view(mem, table);
  EXPECT_EQ(view.count(), 50u);
  EXPECT_EQ(view.Entries().size(), 50u);
  for (const auto& [hash, entry] : inserted) {
    std::vector<VAddr> chain = view.Chain(hash);
    EXPECT_NE(std::find(chain.begin(), chain.end(), entry), chain.end());
  }
}

TEST_F(RuntimeTest, LookupFindsInsertedHashes) {
  VAddr table = CreateHashTable(mem, ht_region, 32, 8);
  Cpu cpu = MakeCpu();
  for (uint64_t key = 100; key < 120; ++key) {
    uint64_t args[] = {table, HashKey(key)};
    VAddr entry = cpu.CallFunction(runtime->ht_insert_fn(), args);
    mem.Write<uint64_t>(entry + kHtEntryPayload, key);
  }
  for (uint64_t key = 100; key < 120; ++key) {
    uint64_t args[] = {table, HashKey(key)};
    VAddr entry = cpu.CallFunction(runtime->ht_lookup_fn(), args);
    ASSERT_NE(entry, 0u) << key;
    EXPECT_EQ(mem.Read<uint64_t>(entry + kHtEntryHash), HashKey(key));
  }
  uint64_t missing[] = {table, HashKey(9999)};
  EXPECT_EQ(cpu.CallFunction(runtime->ht_lookup_fn(), missing), 0u);
}

TEST_F(RuntimeTest, GrowthExtendsCapacity) {
  VAddr table = CreateHashTable(mem, ht_region, 4, 8);  // Tiny: forces growth.
  Cpu cpu = MakeCpu();
  for (uint64_t key = 0; key < 100; ++key) {
    uint64_t args[] = {table, HashKey(key)};
    ASSERT_NE(cpu.CallFunction(runtime->ht_insert_fn(), args), 0u);
  }
  HashTableView view(mem, table);
  EXPECT_EQ(view.count(), 100u);
  // Every inserted hash must still be reachable through its chain.
  for (uint64_t key = 0; key < 100; ++key) {
    uint64_t args[] = {table, HashKey(key)};
    EXPECT_NE(cpu.CallFunction(runtime->ht_lookup_fn(), args), 0u) << key;
  }
}

TEST_F(RuntimeTest, InsertPreservesTagRegister) {
  // A sample inside rt_ht_insert must observe the caller's tag: the compiled function may not
  // clobber r15. Call insert from a wrapper that sets a tag and returns it afterwards.
  VAddr table = CreateHashTable(mem, ht_region, 8, 8);
  IrFunction wrapper("wrapper", 2);
  IrIdAllocator ids;
  IrBuilder b(&wrapper, &ids);
  b.SetInsertPoint(b.CreateBlock("entry"));
  b.SetTag(Value::Imm(777));
  b.Call(runtime->ht_insert_fn(), {Value::Reg(0), Value::Reg(1)}, /*has_result=*/true);
  uint32_t tag = b.GetTag();
  b.Ret(Value::Reg(tag));
  CompileOptions options;
  options.reserve_tag_register = true;
  EmittedFunction emitted = CompileFunction(wrapper, options);
  uint32_t segment = code_map.AddSegment(SegmentKind::kGenerated, "wrapper", std::move(emitted.code));
  uint32_t fn = code_map.AddFunction("wrapper", segment, 0, emitted.spill_slots, 2);
  Cpu cpu = MakeCpu();
  uint64_t args[] = {table, HashKey(1)};
  EXPECT_EQ(cpu.CallFunction(fn, args), 777u);
}

TEST_F(RuntimeTest, SortOrdersRowsByIntKey) {
  uint32_t scratch = mem.CreateRegion("scratch", 1 << 20);
  const uint64_t rows = 200;
  const uint64_t row_size = 16;  // [key i64][payload i64]
  VAddr buffer = mem.Alloc(scratch, rows * row_size);
  Random rng(3);
  for (uint64_t i = 0; i < rows; ++i) {
    mem.Write<int64_t>(buffer + i * row_size, rng.Uniform(-1000, 1000));
    mem.Write<int64_t>(buffer + i * row_size + 8, static_cast<int64_t>(i));
  }
  SortSpec spec;
  spec.row_size = row_size;
  spec.keys = {{0, ColumnType::kInt64, false}};
  uint32_t spec_id = runtime->RegisterSortSpec(spec);
  Cpu cpu = MakeCpu();
  uint64_t args[] = {buffer, rows, spec_id};
  cpu.CallFunction(runtime->sort_fn(), args);
  for (uint64_t i = 1; i < rows; ++i) {
    EXPECT_LE(mem.Read<int64_t>(buffer + (i - 1) * row_size), mem.Read<int64_t>(buffer + i * row_size));
  }
  EXPECT_GT(cpu.tsc(), 0u);
}

TEST_F(RuntimeTest, SortDescendingAndSecondaryKey) {
  uint32_t scratch = mem.CreateRegion("scratch2", 1 << 20);
  const uint64_t rows = 50;
  const uint64_t row_size = 16;
  VAddr buffer = mem.Alloc(scratch, rows * row_size);
  Random rng(5);
  for (uint64_t i = 0; i < rows; ++i) {
    mem.Write<int64_t>(buffer + i * row_size, rng.Uniform(0, 5));
    mem.Write<int64_t>(buffer + i * row_size + 8, rng.Uniform(0, 100));
  }
  SortSpec spec;
  spec.row_size = row_size;
  spec.keys = {{0, ColumnType::kInt64, true}, {8, ColumnType::kInt64, false}};
  uint32_t spec_id = runtime->RegisterSortSpec(spec);
  Cpu cpu = MakeCpu();
  uint64_t args[] = {buffer, rows, spec_id};
  cpu.CallFunction(runtime->sort_fn(), args);
  for (uint64_t i = 1; i < rows; ++i) {
    int64_t prev_key = mem.Read<int64_t>(buffer + (i - 1) * row_size);
    int64_t key = mem.Read<int64_t>(buffer + i * row_size);
    EXPECT_GE(prev_key, key);
    if (prev_key == key) {
      EXPECT_LE(mem.Read<int64_t>(buffer + (i - 1) * row_size + 8),
                mem.Read<int64_t>(buffer + i * row_size + 8));
    }
  }
}

TEST_F(RuntimeTest, StringCompareAndLike) {
  StringHeap heap(&mem, string_region);
  uint64_t apple = heap.Intern("apple");
  uint64_t banana = heap.Intern("banana");
  uint64_t chip = heap.Intern("microchip");
  Cpu cpu = MakeCpu();
  uint64_t ab[] = {apple, banana};
  EXPECT_EQ(static_cast<int64_t>(cpu.CallFunction(runtime->str_cmp_fn(), ab)), -1);
  uint64_t ba[] = {banana, apple};
  EXPECT_EQ(static_cast<int64_t>(cpu.CallFunction(runtime->str_cmp_fn(), ba)), 1);
  uint64_t aa[] = {apple, apple};
  EXPECT_EQ(cpu.CallFunction(runtime->str_cmp_fn(), aa), 0u);

  uint32_t pattern = runtime->RegisterPattern("%chip%");
  uint64_t like_args[] = {chip, pattern};
  EXPECT_EQ(cpu.CallFunction(runtime->str_like_fn(), like_args), 1u);
  uint64_t not_args[] = {apple, pattern};
  EXPECT_EQ(cpu.CallFunction(runtime->str_like_fn(), not_args), 0u);
}

TEST_F(RuntimeTest, SyslibSamplesLandInSyslibSegment) {
  StringHeap heap(&mem, string_region);
  uint64_t s = heap.Intern("some-longer-string-for-cost");
  SamplingConfig config;
  config.enabled = true;
  config.period = 5;
  pmu.Configure(config);
  Cpu cpu = MakeCpu();
  uint32_t pattern = runtime->RegisterPattern("%x%");
  for (int i = 0; i < 100; ++i) {
    uint64_t args[] = {s, pattern};
    cpu.CallFunction(runtime->str_like_fn(), args);
  }
  ASSERT_FALSE(pmu.samples().empty());
  int syslib_samples = 0;
  for (const Sample& sample : pmu.samples()) {
    const CodeSegment* segment = code_map.FindByIp(sample.ip);
    ASSERT_NE(segment, nullptr);
    if (segment->kind == SegmentKind::kSyslib) {
      ++syslib_samples;
    }
  }
  EXPECT_GT(syslib_samples, 0);
}

}  // namespace
}  // namespace dfp
