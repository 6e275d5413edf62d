#include "src/tpch/datagen.h"

#include <array>
#include <cmath>

#include "src/util/date.h"
#include "src/util/decimal.h"
#include "src/util/random.h"
#include "src/util/str.h"

namespace dfp {
namespace {

// Every generated database draws from this one seed, so a scale names one dataset.
constexpr uint64_t kTpchSeed = 19920401;

constexpr std::array<const char*, 25> kNations = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",         "EGYPT",   "ETHIOPIA",     "FRANCE",
    "GERMANY", "INDIA",     "INDONESIA", "IRAN",         "IRAQ",    "JAPAN",        "JORDAN",
    "KENYA",   "MOROCCO",   "MOZAMBIQUE", "PERU",        "CHINA",   "ROMANIA",      "SAUDI ARABIA",
    "VIETNAM", "RUSSIA",    "UNITED KINGDOM", "UNITED STATES"};
constexpr std::array<int, 25> kNationRegion = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
constexpr std::array<const char*, 5> kRegions = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                                 "MIDDLE EAST"};
constexpr std::array<const char*, 5> kSegments = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                                  "HOUSEHOLD", "MACHINERY"};
constexpr std::array<const char*, 5> kPriorities = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                                    "4-NOT SPECIFIED", "5-LOW"};
constexpr std::array<const char*, 7> kShipModes = {"AIR", "FOB", "MAIL", "RAIL",
                                                   "REG AIR", "SHIP", "TRUCK"};
constexpr std::array<const char*, 4> kShipInstructs = {"COLLECT COD", "DELIVER IN PERSON",
                                                       "NONE", "TAKE BACK RETURN"};
constexpr std::array<const char*, 6> kTypeSyllable1 = {"STANDARD", "SMALL",  "MEDIUM",
                                                       "LARGE",    "ECONOMY", "PROMO"};
constexpr std::array<const char*, 5> kTypeSyllable2 = {"ANODIZED", "BURNISHED", "PLATED",
                                                       "POLISHED", "BRUSHED"};
constexpr std::array<const char*, 5> kTypeSyllable3 = {"TIN", "NICKEL", "BRASS", "STEEL",
                                                       "COPPER"};
constexpr std::array<const char*, 8> kContainers = {"SM CASE", "SM BOX",  "MED BAG", "MED BOX",
                                                    "LG CASE", "LG BOX",  "JUMBO PKG", "WRAP CASE"};
constexpr std::array<const char*, 16> kNameWords = {
    "almond", "antique",  "aquamarine", "azure",  "beige",  "bisque", "black",  "blanched",
    "blue",   "blush",    "brown",      "burlywood", "chartreuse", "chiffon", "chocolate",
    "coral"};

constexpr int kStartDate = 8035;   // 1992-01-01.
constexpr int kEndDate = 10441;    // 1998-08-02.

}  // namespace

TpchRowCounts TpchCountsForScale(double scale) {
  TpchRowCounts counts;
  auto scaled = [&](double base) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(base * scale)));
  };
  counts.supplier = scaled(10000);
  counts.customer = scaled(150000);
  counts.part = scaled(200000);
  counts.partsupp = counts.part * 4;
  counts.orders = scaled(1500000);
  counts.lineitem = counts.orders * 4;  // Expected value of uniform 1..7.
  return counts;
}

TpchRowCounts GenerateTpch(Database& db, const TpchOptions& options) {
  Random rng(kTpchSeed);
  TpchRowCounts counts = TpchCountsForScale(options.scale);

  // --- region ---
  {
    TableBuilder builder = db.CreateTableBuilder(
        {"region", {{"r_regionkey", ColumnType::kInt64}, {"r_name", ColumnType::kString}}});
    for (uint64_t i = 0; i < counts.region; ++i) {
      builder.BeginRow();
      builder.SetI64(0, static_cast<int64_t>(i));
      builder.SetString(1, kRegions[i]);
    }
    db.AddTable(builder.Finish());
  }

  // --- nation ---
  {
    TableBuilder builder = db.CreateTableBuilder({"nation",
                                                  {{"n_nationkey", ColumnType::kInt64},
                                                   {"n_name", ColumnType::kString},
                                                   {"n_regionkey", ColumnType::kInt64}}});
    for (uint64_t i = 0; i < counts.nation; ++i) {
      builder.BeginRow();
      builder.SetI64(0, static_cast<int64_t>(i));
      builder.SetString(1, kNations[i]);
      builder.SetI64(2, kNationRegion[i]);
    }
    db.AddTable(builder.Finish());
  }

  // --- supplier ---
  {
    TableBuilder builder = db.CreateTableBuilder({"supplier",
                                                  {{"s_suppkey", ColumnType::kInt64},
                                                   {"s_name", ColumnType::kString},
                                                   {"s_nationkey", ColumnType::kInt64},
                                                   {"s_acctbal", ColumnType::kDecimal}}});
    for (uint64_t i = 1; i <= counts.supplier; ++i) {
      builder.BeginRow();
      builder.SetI64(0, static_cast<int64_t>(i));
      builder.SetString(1, StrFormat("Supplier#%09llu", static_cast<unsigned long long>(i)));
      builder.SetI64(2, rng.Uniform(0, 24));
      builder.SetDecimal(3, rng.Uniform(-99999, 999999));
    }
    db.AddTable(builder.Finish());
  }

  // --- customer ---
  {
    TableBuilder builder = db.CreateTableBuilder({"customer",
                                                  {{"c_custkey", ColumnType::kInt64},
                                                   {"c_name", ColumnType::kString},
                                                   {"c_nationkey", ColumnType::kInt64},
                                                   {"c_acctbal", ColumnType::kDecimal},
                                                   {"c_mktsegment", ColumnType::kString}}});
    for (uint64_t i = 1; i <= counts.customer; ++i) {
      builder.BeginRow();
      builder.SetI64(0, static_cast<int64_t>(i));
      builder.SetString(1, StrFormat("Customer#%09llu", static_cast<unsigned long long>(i)));
      builder.SetI64(2, rng.Uniform(0, 24));
      builder.SetDecimal(3, rng.Uniform(-99999, 999999));
      builder.SetString(4, kSegments[static_cast<size_t>(rng.Uniform(0, 4))]);
    }
    db.AddTable(builder.Finish());
  }

  // --- part ---
  std::vector<int64_t> part_price(counts.part + 1, 0);
  {
    TableBuilder builder = db.CreateTableBuilder({"part",
                                                  {{"p_partkey", ColumnType::kInt64},
                                                   {"p_name", ColumnType::kString},
                                                   {"p_brand", ColumnType::kString},
                                                   {"p_type", ColumnType::kString},
                                                   {"p_size", ColumnType::kInt64},
                                                   {"p_container", ColumnType::kString},
                                                   {"p_retailprice", ColumnType::kDecimal}}});
    for (uint64_t i = 1; i <= counts.part; ++i) {
      builder.BeginRow();
      builder.SetI64(0, static_cast<int64_t>(i));
      builder.SetString(
          1, StrFormat("%s %s", kNameWords[static_cast<size_t>(rng.Uniform(0, 15))],
                       kNameWords[static_cast<size_t>(rng.Uniform(0, 15))]));
      builder.SetString(2, StrFormat("Brand#%lld%lld", static_cast<long long>(rng.Uniform(1, 5)),
                                     static_cast<long long>(rng.Uniform(1, 5))));
      builder.SetString(3,
                        StrFormat("%s %s %s",
                                  kTypeSyllable1[static_cast<size_t>(rng.Uniform(0, 5))],
                                  kTypeSyllable2[static_cast<size_t>(rng.Uniform(0, 4))],
                                  kTypeSyllable3[static_cast<size_t>(rng.Uniform(0, 4))]));
      builder.SetI64(4, rng.Uniform(1, 50));
      builder.SetString(5, kContainers[static_cast<size_t>(rng.Uniform(0, 7))]);
      // TPC-H price formula shape: 900 + partkey/10 mod 2001 cents structure, scaled decimal.
      int64_t price = MakeDecimal(900, 0) + static_cast<int64_t>((i / 10) % 20001) +
                      100 * static_cast<int64_t>(i % 1000);
      part_price[i] = price;
      builder.SetDecimal(6, price);
    }
    db.AddTable(builder.Finish());
  }

  // --- partsupp --- (each part has 4 suppliers, derived deterministically)
  auto supplier_for = [&](uint64_t partkey, uint64_t copy) -> int64_t {
    const uint64_t s = counts.supplier;
    return static_cast<int64_t>((partkey + copy * ((s / 4) + (partkey - 1) / s)) % s + 1);
  };
  {
    TableBuilder builder = db.CreateTableBuilder({"partsupp",
                                                  {{"ps_partkey", ColumnType::kInt64},
                                                   {"ps_suppkey", ColumnType::kInt64},
                                                   {"ps_availqty", ColumnType::kInt64},
                                                   {"ps_supplycost", ColumnType::kDecimal}}});
    for (uint64_t i = 1; i <= counts.part; ++i) {
      for (uint64_t copy = 0; copy < 4; ++copy) {
        builder.BeginRow();
        builder.SetI64(0, static_cast<int64_t>(i));
        builder.SetI64(1, supplier_for(i, copy));
        builder.SetI64(2, rng.Uniform(1, 9999));
        builder.SetDecimal(3, rng.Uniform(100, 100000));
      }
    }
    db.AddTable(builder.Finish());
  }

  // --- orders + lineitem ---
  uint64_t lineitem_rows = 0;
  {
    TableBuilder orders = db.CreateTableBuilder({"orders",
                                                 {{"o_orderkey", ColumnType::kInt64},
                                                  {"o_custkey", ColumnType::kInt64},
                                                  {"o_orderstatus", ColumnType::kString},
                                                  {"o_totalprice", ColumnType::kDecimal},
                                                  {"o_orderdate", ColumnType::kDate},
                                                  {"o_orderpriority", ColumnType::kString},
                                                  {"o_shippriority", ColumnType::kInt64}}});
    TableBuilder lineitem = db.CreateTableBuilder({"lineitem",
                                                   {{"l_orderkey", ColumnType::kInt64},
                                                    {"l_partkey", ColumnType::kInt64},
                                                    {"l_suppkey", ColumnType::kInt64},
                                                    {"l_linenumber", ColumnType::kInt64},
                                                    {"l_quantity", ColumnType::kDecimal},
                                                    {"l_extendedprice", ColumnType::kDecimal},
                                                    {"l_discount", ColumnType::kDecimal},
                                                    {"l_tax", ColumnType::kDecimal},
                                                    {"l_returnflag", ColumnType::kString},
                                                    {"l_linestatus", ColumnType::kString},
                                                    {"l_shipdate", ColumnType::kDate},
                                                    {"l_commitdate", ColumnType::kDate},
                                                    {"l_receiptdate", ColumnType::kDate},
                                                    {"l_shipmode", ColumnType::kString},
                                                    {"l_shipinstruct", ColumnType::kString}}});
    const int64_t kCutoff = 10044;  // 1997-06-28: dates after this are "open" orders.
    for (uint64_t okey = 1; okey <= counts.orders; ++okey) {
      int32_t orderdate;
      if (options.correlated_order_dates) {
        orderdate = static_cast<int32_t>(
            kStartDate + (okey - 1) * static_cast<uint64_t>(kEndDate - kStartDate) /
                             std::max<uint64_t>(1, counts.orders - 1));
      } else {
        orderdate = static_cast<int32_t>(rng.Uniform(kStartDate, kEndDate));
      }
      const int64_t lines = rng.Uniform(1, 7);
      int64_t total = 0;
      for (int64_t line = 1; line <= lines; ++line) {
        const uint64_t partkey = static_cast<uint64_t>(rng.Uniform(1, static_cast<int64_t>(counts.part)));
        const int64_t quantity = MakeDecimal(rng.Uniform(1, 50), 0);
        const int64_t extended = DecimalMul(quantity, part_price[partkey]);
        const int32_t shipdate = orderdate + static_cast<int32_t>(rng.Uniform(1, 121));
        lineitem.BeginRow();
        lineitem.SetI64(0, static_cast<int64_t>(okey));
        lineitem.SetI64(1, static_cast<int64_t>(partkey));
        lineitem.SetI64(2, supplier_for(partkey, static_cast<uint64_t>(rng.Uniform(0, 3))));
        lineitem.SetI64(3, line);
        lineitem.SetDecimal(4, quantity);
        lineitem.SetDecimal(5, extended);
        lineitem.SetDecimal(6, rng.Uniform(0, 10));   // 0.00 .. 0.10
        lineitem.SetDecimal(7, rng.Uniform(0, 8));    // 0.00 .. 0.08
        lineitem.SetString(8, shipdate > kCutoff ? "N" : (rng.Chance(0.5) ? "R" : "A"));
        lineitem.SetString(9, shipdate > kCutoff ? "O" : "F");
        lineitem.SetDate(10, shipdate);
        lineitem.SetDate(11, orderdate + static_cast<int32_t>(rng.Uniform(30, 90)));
        lineitem.SetDate(12, shipdate + static_cast<int32_t>(rng.Uniform(1, 30)));
        lineitem.SetString(13, kShipModes[static_cast<size_t>(rng.Uniform(0, 6))]);
        lineitem.SetString(14, kShipInstructs[static_cast<size_t>(rng.Uniform(0, 3))]);
        total += extended;
        ++lineitem_rows;
      }
      orders.BeginRow();
      orders.SetI64(0, static_cast<int64_t>(okey));
      orders.SetI64(1, rng.Uniform(1, static_cast<int64_t>(counts.customer)));
      orders.SetString(2, orderdate > kCutoff ? "O" : "F");
      orders.SetDecimal(3, total);
      orders.SetDate(4, orderdate);
      orders.SetString(5, kPriorities[static_cast<size_t>(rng.Uniform(0, 4))]);
      orders.SetI64(6, 0);
      // lineitem is generated per order, so it is naturally clustered on l_orderkey.
    }
    db.AddTable(orders.Finish());
    db.AddTable(lineitem.Finish());
  }
  counts.lineitem = lineitem_rows;
  return counts;
}

}  // namespace dfp
