// Cardinality-driven plan rewriting for closed-loop re-optimization.
//
// The service measures per-operator output rows (tuple counters surfaced through the windowed
// fleet profile) and, when the measurements contradict the estimates that picked a plan's join
// order, re-runs the ordering decision here with the observed cardinalities injected as the
// estimates. The rewrite is purely structural: the candidate must return bit-identical results
// to the original, so any column motion introduced by reordering payload-carrying joins is
// tracked as a slot permutation and undone by a projecting Map under the ResultSink.
#ifndef DFP_SRC_PLAN_REWRITE_H_
#define DFP_SRC_PLAN_REWRITE_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/plan/physical.h"

namespace dfp {

// Row counts keyed by OperatorId. std::map keeps iteration deterministic, which matters because
// rewrite decisions feed compiled code and must replay byte-for-byte.
using CardinalityMap = std::map<OperatorId, uint64_t>;

// Plan-time cardinality estimates by operator id (from PhysicalOp::estimated_rows, falling back
// to bound_rows for unfinalized estimates).
CardinalityMap EstimatedCardinalities(const PhysicalOp& root);

// Overwrites estimated_rows with observed row counts by operator id. Zero observations are
// clamped to one so a later FinalizePlan does not silently re-derive them from bounds.
void InjectCardinalities(PhysicalOp& root, const CardinalityMap& observed);

struct ReoptRewriteOptions {
  // Sort spine joins by DESCENDING observed build rows: deliberately the worst order. Fault
  // injection so tests and the bench can force the guard's revert path.
  bool pessimize = false;
  // Enable the semi-join-reduction insertion (gated on measured build-side blowup: observed
  // build rows at least 3x the plan-time estimate).
  bool semi_join_reduction = false;
};

struct ReoptRewrite {
  PhysicalOpPtr plan;       // Finalized candidate; null when nothing changed.
  bool changed = false;
  bool reordered = false;   // Join order differs from the original.
  bool semi_join = false;   // A semi-join reduction was inserted.
  std::string description;  // One-line summary for events and timelines.
};

// Re-runs the physical planning decisions that depend on cardinalities, with `observed` injected
// as the estimates. The topmost hash-join spine (a chain of HashJoins linked through their probe
// children, all keyed on the base probe stream) is reordered by ascending observed build-side
// rows — the binder's greedy smallest-build-lowest rule, re-evaluated on measurements. With
// semi_join_reduction enabled, the spine join whose measured build side blew up the most past
// the gate is duplicated as a semi-join filter directly above the base stream, so non-matching
// rows die before the lower joins touch them. Returns changed=false when the measured order
// already matches the plan or no legal spine exists.
ReoptRewrite ReoptimizePlan(const PhysicalOp& original, const CardinalityMap& observed,
                            const ReoptRewriteOptions& options = {});

}  // namespace dfp

#endif  // DFP_SRC_PLAN_REWRITE_H_
