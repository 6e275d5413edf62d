#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "src/util/chart.h"
#include "src/util/check.h"
#include "src/util/date.h"
#include "src/util/decimal.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/str.h"
#include "src/util/table_printer.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

TEST(Hash, Crc32IsDeterministicAndSeedSensitive) {
  EXPECT_EQ(Crc32u64(0, 0x1234567890ABCDEFull), Crc32u64(0, 0x1234567890ABCDEFull));
  EXPECT_NE(Crc32u64(0, 1), Crc32u64(0, 2));
  EXPECT_NE(Crc32u64(1, 42), Crc32u64(2, 42));
}

TEST(Hash, Crc32ZeroOfZeroSeed) {
  // CRC of all-zero input with zero seed is zero for this table-driven implementation.
  EXPECT_EQ(Crc32u64(0, 0), 0u);
}

// The byte-at-a-time CRC32-C loop: the definition the table-driven Crc32u64 must reproduce.
uint32_t ByteWiseCrc32u64(uint32_t seed, uint64_t value) {
  uint32_t crc = seed;
  for (int i = 0; i < 64; i += 8) {
    crc ^= static_cast<uint8_t>(value >> i);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return crc;
}

TEST(Hash, Crc32MatchesByteWiseLoop) {
  for (uint64_t stream = 1; stream <= 8; ++stream) {
    Random rng(stream);
    for (int i = 0; i < 20000; ++i) {
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      const uint64_t value = rng.Next();
      ASSERT_EQ(Crc32u64(seed, value), ByteWiseCrc32u64(seed, value)) << seed << " " << value;
    }
  }
  // Edge values, and every single-bit value under the hashing seeds the code generator emits.
  const uint32_t seeds[] = {0u, 0xFFFFFFFFu, static_cast<uint32_t>(kHashSeed1),
                            static_cast<uint32_t>(kHashSeed2)};
  for (uint32_t seed : seeds) {
    for (uint64_t value : {0ull, ~0ull, 0x8000000000000000ull, 0x00000000FFFFFFFFull}) {
      EXPECT_EQ(Crc32u64(seed, value), ByteWiseCrc32u64(seed, value));
    }
    for (int bit = 0; bit < 64; ++bit) {
      EXPECT_EQ(Crc32u64(seed, 1ull << bit), ByteWiseCrc32u64(seed, 1ull << bit));
    }
  }
}

TEST(Hash, HashKeySpreadsHighBits) {
  // Directory indexing uses the hash's high bits (as the paper's generated code does with
  // `shr %11, 16`): sequential keys must land in many distinct buckets of a 1024-entry directory.
  std::set<uint64_t> buckets;
  for (uint64_t key = 0; key < 1000; ++key) {
    buckets.insert(HashKey(key) >> 54);
  }
  EXPECT_GT(buckets.size(), 550u);
}

TEST(Hash, HashCombineDiffersFromInputs) {
  uint64_t a = HashKey(1);
  uint64_t b = HashKey(2);
  EXPECT_NE(HashCombine(a, b), a);
  EXPECT_NE(HashCombine(a, b), b);
  EXPECT_NE(HashCombine(a, b), HashCombine(b, a));
}

TEST(Date, RoundTrip) {
  for (int year : {1970, 1992, 1998, 2000, 2024}) {
    for (int month : {1, 2, 6, 12}) {
      for (int day : {1, 15, 28}) {
        int32_t days = DateFromYmd(year, month, day);
        int y = 0;
        int m = 0;
        int d = 0;
        YmdFromDate(days, &y, &m, &d);
        EXPECT_EQ(y, year);
        EXPECT_EQ(m, month);
        EXPECT_EQ(d, day);
      }
    }
  }
}

TEST(Date, EpochIsZero) { EXPECT_EQ(DateFromYmd(1970, 1, 1), 0); }

TEST(Date, ParseAndFormat) {
  EXPECT_EQ(DateToString(ParseDate("1995-04-01")), "1995-04-01");
  EXPECT_LT(ParseDate("1995-03-31"), ParseDate("1995-04-01"));
  EXPECT_THROW(ParseDate("not-a-date"), Error);
  EXPECT_THROW(ParseDate("1995-13-01"), Error);
}

TEST(Decimal, Arithmetic) {
  int64_t a = MakeDecimal(12, 34);  // 12.34
  int64_t b = MakeDecimal(2, 0);    // 2.00
  EXPECT_EQ(DecimalToString(a), "12.34");
  EXPECT_EQ(DecimalMul(a, b), MakeDecimal(24, 68));
  EXPECT_EQ(DecimalDiv(a, b), MakeDecimal(6, 17));
  EXPECT_EQ(DecimalToString(MakeDecimal(-3, 5)), "-3.05");
  EXPECT_DOUBLE_EQ(DecimalToDouble(a), 12.34);
}

TEST(Random, DeterministicPerSeed) {
  Random a(42);
  Random b(42);
  Random c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(Random, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Str, LikeMatch) {
  EXPECT_TRUE(LikeMatch("chip", "chip"));
  EXPECT_TRUE(LikeMatch("microchip", "%chip"));
  EXPECT_TRUE(LikeMatch("chipset", "chip%"));
  EXPECT_TRUE(LikeMatch("a chip here", "%chip%"));
  EXPECT_TRUE(LikeMatch("chap", "ch_p"));
  EXPECT_FALSE(LikeMatch("chop", "chip"));
  EXPECT_FALSE(LikeMatch("chi", "chip%"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("abcabc", "%abc"));
}

TEST(Str, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(PercentString(0.123), "12.3%");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter printer({"name", "value"});
  printer.SetRightAlign(1, true);
  printer.AddRow({"a", "1"});
  printer.AddRow({"long-name", "12345"});
  std::string out = printer.Render();
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  // Right-aligned numbers end at the same column.
  EXPECT_NE(out.find("    1\n"), std::string::npos);
}

TEST(Chart, BarChartRendersAllEntries) {
  std::string out = RenderBarChart({{"join", 0.58}, {"scan", 0.04}}, 30);
  EXPECT_NE(out.find("join"), std::string::npos);
  EXPECT_NE(out.find("58.0%"), std::string::npos);
  EXPECT_NE(out.find("scan"), std::string::npos);
}

TEST(Chart, ScatterPlotBounds) {
  ScatterPlot plot;
  plot.x_max = 10;
  plot.y_max = 10;
  plot.points = {{0, 0}, {9.9, 9.9}, {5, 5}};
  std::string out = RenderScatterPlot(plot);
  EXPECT_NE(out.find('.'), std::string::npos);
}

TEST(TextFormat, Hex16RoundTripsAndRejectsAnythingElse) {
  EXPECT_EQ(Hex16(0x12ab), "00000000000012ab");
  for (uint64_t value : {uint64_t{0}, uint64_t{0x12ab}, ~uint64_t{0}, DoubleBits(1.0 / 3.0)}) {
    EXPECT_EQ(ParseHex16(Hex16(value)), value);
  }
  EXPECT_EQ(BitsToDouble(ParseHex16(Hex16(DoubleBits(1.0 / 3.0)))), 1.0 / 3.0);
  for (const char* bad : {"", "12ab", "00000000000012AB", "zzzzzzzzzzzzzzzz", "12zzzzzzzzzzzzzz",
                          "000000000000012ab", "+00000000000012a", " 00000000000012a"}) {
    EXPECT_THROW(ParseHex16(bad), Error) << "'" << bad << "'";
  }
}

TEST(TextFormat, ExpectHeaderAcceptsExactlyOneLine) {
  std::istringstream ok("# dfp x v2\nbody\n");
  LineReader reader(ok, "x");
  reader.ExpectHeader("# dfp x v2");
  ASSERT_TRUE(reader.Next());
  EXPECT_EQ(reader.line(), "body");
  for (const char* text : {"# dfp x v1\n", "# dfp x v3\n", "# dfp x v2 \n", ""}) {
    std::istringstream in(text);
    LineReader bad(in, "x");
    EXPECT_THROW(bad.ExpectHeader("# dfp x v2"), Error) << text;
  }
}

}  // namespace
}  // namespace dfp
