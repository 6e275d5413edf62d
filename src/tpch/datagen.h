// Deterministic TPC-H-style synthetic data generator.
//
// Generates the eight TPC-H tables with spec-shaped schemas and distributions at a configurable
// scale (scale 1.0 corresponds to TPC-H SF1 row counts; the default simulation-friendly scale is
// much smaller). Substitution note (cf. DESIGN.md): this replaces dbgen; value distributions are
// simplified but preserve the join cardinalities (dense keys, PK-FK relationships) and the
// selectivity behaviour of the predicates used by the query suite.
#ifndef DFP_SRC_TPCH_DATAGEN_H_
#define DFP_SRC_TPCH_DATAGEN_H_

#include <cstdint>

#include "src/engine/database.h"

namespace dfp {

struct TpchOptions {
  double scale = 0.01;  // Fraction of TPC-H SF1 row counts.
  // When set, o_orderdate grows monotonically with o_orderkey. Used by the Figure 11
  // reproduction: lineitem is clustered on l_orderkey, so a date filter on orders makes probe
  // matches arrive clustered in time (all matches first, then none).
  bool correlated_order_dates = false;
};

struct TpchRowCounts {
  uint64_t region = 5;
  uint64_t nation = 25;
  uint64_t supplier = 0;
  uint64_t customer = 0;
  uint64_t part = 0;
  uint64_t partsupp = 0;
  uint64_t orders = 0;
  uint64_t lineitem = 0;  // Approximate (lines per order vary).
};

TpchRowCounts TpchCountsForScale(double scale);

// Generates all eight tables into `db`. Returns the actual row counts.
TpchRowCounts GenerateTpch(Database& db, const TpchOptions& options = TpchOptions());

}  // namespace dfp

#endif  // DFP_SRC_TPCH_DATAGEN_H_
