// Tuple-at-a-time reference executor for physical plans.
//
// Runs entirely host-side (no cost model, no VCPU) and is the correctness oracle for the
// compiling engine: every query in the test suite is executed by both and the results compared.
// Aggregation and expression semantics replicate the generated code exactly (see
// src/plan/eval.h), including NaN averages for empty groupjoin groups.
//
// The aggregate arithmetic and the row operators are exported: the shard coordinator's Merge
// operator (src/shard/merge.h) combines shard partials, finalizes their groups and runs the
// lifted Map/Sort/Limit stages through these same functions, so a fan-out query computes with
// the oracle's semantics rather than a copy of them.
#ifndef DFP_SRC_INTERP_INTERPRETER_H_
#define DFP_SRC_INTERP_INTERPRETER_H_

#include <cstdint>
#include <vector>

#include "src/engine/database.h"
#include "src/engine/result.h"
#include "src/plan/physical.h"

namespace dfp {

Result InterpretPlan(Database& db, const PhysicalOp& root);

// Hash of a grouping or join key (FNV-1a over its payloads).
struct KeyHash {
  size_t operator()(const std::vector<int64_t>& key) const;
};

// Running state of one aggregate. Doubles accumulate in the double fields; int64 and scaled
// decimal inputs in the integer ones.
struct AggState {
  int64_t sum_int = 0;
  double sum_double = 0;
  int64_t count = 0;
  int64_t extreme_int = 0;
  double extreme_double = 0;
  bool seen = false;
};

// Input type of an aggregate expression (kInt64 for COUNT(*)).
ColumnType AggInputType(const Expr& agg);

// Feeds one input to `state`: SUM and AVG add `value` and `count`, COUNT adds `count`, MIN and
// MAX compare `value`. A row feeds count 1; a shard partial feeds the count it carries.
void Accumulate(AggOp op, ColumnType in_type, int64_t value, int64_t count, AggState& state);

// The aggregate's final payload, computed as the generated finalization does.
int64_t FinalizeAgg(AggOp op, ColumnType in_type, const AggState& state);

// Runs one row operator — Filter, Map, Sort (with its own limit) or Limit — over `rows` in
// place. `input_schema` is the operator's input (Sort reads column types from it); `strings`
// resolves LIKE patterns and string ordering.
void ApplyRowOperator(const PhysicalOp& op, const std::vector<OutputColumn>& input_schema,
                      const StringHeap& strings, std::vector<std::vector<int64_t>>& rows);

}  // namespace dfp

#endif  // DFP_SRC_INTERP_INTERPRETER_H_
