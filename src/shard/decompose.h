// Fan-out decomposition: splitting an aggregation plan into per-shard partials plus a
// coordinator merge recipe.
//
// The coordinator classifies every submitted plan: plans that never scan a range-partitioned
// fact table run whole on one shard (routed by fingerprint); plans that do are decomposed. The
// supported fan-out shape is the aggregation spine every gated workload query has —
//
//   ResultSink -> {Limit | Sort | Map}* -> GroupBy -> <shard-local subtree>
//
// The GroupBy and everything below it executes unchanged on every shard, except that its
// aggregate list is rewritten into mergeable partials (AVG becomes SUM + COUNT(*); SUM, COUNT,
// MIN, MAX are already decomposable). The operators above the GroupBy — final projections,
// ORDER BY, LIMIT — cannot run per shard (they need the global aggregate) and are lifted into
// the MergeRecipe, which the coordinator's ShardMerger (src/shard/merge.h) applies host-side
// after combining the partials.
//
// The subtree below the GroupBy is shard-local only when every shard's rows union to the
// unsharded rows. Its placement is checked bottom-up: rows descending from orders or lineitem
// are split across the shards, and the order key (column 0 of both) is tracked through the
// operators that keep it. A join of two split inputs must pair their order keys (orders and
// lineitem are co-partitioned on it); a semi or anti join may not probe replicated rows against
// a split build side, nor a GroupJoin aggregate split probe rows into replicated groups; a
// Limit, or a Sort with a limit, may not cut split rows; and a nested GroupBy over split rows
// must group by the order key. A plan breaking one of these rules, or the spine shape, is
// refused with dfp::Error naming the operator, rather than answered with wrong rows.
//
// Correctness of the recombination is exact, not approximate: the merge runs the Volcano
// oracle's aggregate arithmetic over the partial columns, and groups are emitted in
// first-appearance order across the shard partials taken in shard order — which, because the
// fact-table slices are contiguous in generation order (src/shard/partition.h), is the same
// first-appearance order the unsharded engine sees.
#ifndef DFP_SRC_SHARD_DECOMPOSE_H_
#define DFP_SRC_SHARD_DECOMPOSE_H_

#include <cstdint>
#include <vector>

#include "src/plan/physical.h"

namespace dfp {

// One original aggregate of the fan-out GroupBy, described for the merge: where its partial
// column(s) sit in the partial rows and how to combine and finalize them.
struct MergeAggSpec {
  AggOp op = AggOp::kSum;                   // The ORIGINAL aggregate (kAvg, not its partials).
  ColumnType in_type = ColumnType::kInt64;  // Aggregate input type (drives int/double paths).
  int partial_col = 0;  // First partial column in the partial row (keys precede partials); a
                        // kAvg's count follows its sum.
};

// Everything the coordinator needs to recombine shard partials into the exact unsharded result.
struct MergeRecipe {
  size_t group_keys = 0;  // Key columns at the front of every partial row.
  std::vector<MergeAggSpec> aggs;
  // Schema of the merged (finalized) rows: the original GroupBy's output.
  std::vector<OutputColumn> merged_output;
  // Post-aggregation operators lifted off the plan spine, bottom-up (execution order): each is
  // a childless clone of a kMap / kSort / kLimit node, applied host-side by the merger. The
  // stage's own `output` is the schema after it runs; its input schema is the previous stage's
  // output (or `merged_output` for the first).
  std::vector<PhysicalOpPtr> stages;
  // Final result schema (the ResultSink's output = the last stage's, or merged_output).
  std::vector<OutputColumn> final_output;
};

// True when some table scan in the plan reads a range-partitioned fact table — the plan must
// fan out; plans over replicated tables only can run whole on any single shard.
bool PlanTouchesPartitionedTable(const PhysicalOp& root);

// Builds the per-shard partial plan: a finalized ResultSink over a clone of the fan-out
// GroupBy (and its whole input subtree) with the aggregate list rewritten into partials.
// Throws dfp::Error when the plan does not match the supported fan-out shape, or when its
// GroupBy's input is not shard-local (see the header comment).
PhysicalOpPtr BuildPartialPlan(const PhysicalOp& root);

// Builds the merge recipe for the same plan (same shape validation as BuildPartialPlan).
MergeRecipe BuildMergeRecipe(const PhysicalOp& root);

}  // namespace dfp

#endif  // DFP_SRC_SHARD_DECOMPOSE_H_
