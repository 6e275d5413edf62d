#include <gtest/gtest.h>

#include "src/storage/stringheap.h"
#include "src/storage/table.h"
#include "src/util/date.h"
#include "src/util/decimal.h"

namespace dfp {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : mem(16ull << 20) {
    columns = mem.CreateRegion("columns", 8ull << 20);
    strings = mem.CreateRegion("strings", 1ull << 20);
    heap = std::make_unique<StringHeap>(&mem, strings);
  }

  VMem mem;
  uint32_t columns = 0;
  uint32_t strings = 0;
  std::unique_ptr<StringHeap> heap;
};

TEST_F(StorageTest, StringHeapInternsAndReads) {
  uint64_t a = heap->Intern("hello");
  uint64_t b = heap->Intern("world");
  uint64_t a2 = heap->Intern("hello");
  EXPECT_EQ(a, a2);  // Interned: same packed reference.
  EXPECT_NE(a, b);
  EXPECT_EQ(heap->Get(a), "hello");
  EXPECT_EQ(heap->Get(b), "world");
  EXPECT_EQ(StringRefLen(a), 5u);
}

TEST_F(StorageTest, EmptyStringHasValidRef) {
  uint64_t e = heap->Intern("");
  EXPECT_EQ(StringRefLen(e), 0u);
  EXPECT_EQ(heap->Get(e), "");
}

TEST_F(StorageTest, TableBuilderRoundTrip) {
  TableSchema schema{"sales",
                     {{"id", ColumnType::kInt64},
                      {"price", ColumnType::kDecimal},
                      {"day", ColumnType::kDate},
                      {"note", ColumnType::kString},
                      {"ratio", ColumnType::kDouble}}};
  TableBuilder builder(schema, &mem, columns, heap.get());
  for (int i = 0; i < 100; ++i) {
    builder.BeginRow();
    builder.SetI64(0, i);
    builder.SetDecimal(1, MakeDecimal(10 + i, 25));
    builder.SetDate(2, DateFromYmd(1995, 4, 1) + i);
    builder.SetString(3, i % 2 == 0 ? "even" : "odd");
    builder.SetDouble(4, i * 0.5);
  }
  Table table = builder.Finish();
  EXPECT_EQ(table.row_count(), 100u);
  EXPECT_EQ(table.Get(mem, 0, 42), 42);
  EXPECT_EQ(table.Get(mem, 1, 42), MakeDecimal(52, 25));
  EXPECT_EQ(table.Get(mem, 2, 42), DateFromYmd(1995, 4, 1) + 42);
  EXPECT_EQ(heap->Get(static_cast<uint64_t>(table.Get(mem, 3, 42))), "even");
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(static_cast<uint64_t>(table.Get(mem, 4, 42))), 21.0);
}

TEST_F(StorageTest, DateColumnsAreFourBytes) {
  TableSchema schema{"t", {{"d", ColumnType::kDate}, {"x", ColumnType::kInt64}}};
  TableBuilder builder(schema, &mem, columns, heap.get());
  for (int i = 0; i < 10; ++i) {
    builder.BeginRow();
    builder.SetDate(0, 1000 + i);
    builder.SetI64(1, i);
  }
  Table table = builder.Finish();
  // Physical stride of the date column is 4 bytes.
  EXPECT_EQ(mem.Read<int32_t>(table.column_base(0)), 1000);
  EXPECT_EQ(mem.Read<int32_t>(table.column_base(0) + 4), 1001);
}

TEST_F(StorageTest, StringEqualityIsPayloadEquality) {
  TableSchema schema{"t", {{"s", ColumnType::kString}}};
  TableBuilder builder(schema, &mem, columns, heap.get());
  builder.BeginRow();
  builder.SetString(0, "chip");
  builder.BeginRow();
  builder.SetString(0, "chip");
  builder.BeginRow();
  builder.SetString(0, "other");
  Table table = builder.Finish();
  EXPECT_EQ(table.Get(mem, 0, 0), table.Get(mem, 0, 1));
  EXPECT_NE(table.Get(mem, 0, 0), table.Get(mem, 0, 2));
}

TEST_F(StorageTest, SchemaFindColumn) {
  TableSchema schema{"t", {{"a", ColumnType::kInt64}, {"b", ColumnType::kDate}}};
  EXPECT_EQ(schema.FindColumn("a"), 0);
  EXPECT_EQ(schema.FindColumn("b"), 1);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
}

}  // namespace
}  // namespace dfp
