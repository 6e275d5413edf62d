// Measured per-operator cardinalities, accumulated per plan fingerprint.
//
// When the service compiles with tuple counting enabled, every execution reads back one exact
// row count per task (EXPLAIN-ANALYZE style, surfaced through CompiledQuery::tuple_counts).
// ObservedCardinalities folds those task counts back onto the dataflow graph's OperatorIds —
// the top abstraction level — and the CardStore keeps an integer EWMA per (fingerprint,
// operator) next to the plan-time estimate, so the re-optimization controller can ask "how far
// off were the estimates that picked this plan?" as a single divergence ratio.
#ifndef DFP_SRC_REOPT_CARDSTORE_H_
#define DFP_SRC_REOPT_CARDSTORE_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/engine/exec_plan.h"
#include "src/plan/rewrite.h"

namespace dfp {

// Folds the most recent execution's tuple counts onto operator ids. Source, filter, map,
// probe, limit, and output tasks count the operator's own output rows; build-side and
// aggregation-input tasks count the rows of the child feeding them (which is exactly the
// build-side blowup measurement the semi-join gate needs). Empty when the query was compiled
// without counters.
CardinalityMap ObservedCardinalities(const CompiledQuery& query);

// One operator's accumulated measurement.
struct CardEntry {
  uint64_t observed_rows = 0;   // Integer EWMA: new = (3*old + observed) / 4.
  uint64_t estimated_rows = 0;  // Plan-time estimate at the last observation.
  uint64_t executions = 0;
  uint64_t generation = 0;  // Store generation of the last observation.
};

struct PlanCards {
  std::string name;
  uint64_t executions = 0;
  uint64_t generation = 0;
  std::map<OperatorId, CardEntry> operators;
};

// Generations a plan survives unobserved before it ages out of the CardStore.
inline constexpr uint64_t kCardMaxAge = 512;

// Per-fingerprint cardinality accumulator. A generation is one Observe call; plans unobserved
// for more than kCardMaxAge generations age out, so a retired fingerprint cannot pin memory
// forever.
class CardStore {
 public:
  // Folds one execution's observed rows (and the plan-time estimates they contradict or
  // confirm) into the fingerprint's entry.
  void Observe(uint64_t fingerprint, const std::string& name, const CardinalityMap& observed,
               const CardinalityMap& estimated);

  const PlanCards* Find(uint64_t fingerprint) const;

  // Worst estimate-vs-observed ratio across the fingerprint's operators, in percent (100 =
  // estimates exact, 400 = 4x off in either direction). Zero when nothing was observed.
  uint64_t MaxDivergencePct(uint64_t fingerprint) const;
  static uint64_t DivergencePct(uint64_t observed, uint64_t estimated);

  const std::map<uint64_t, PlanCards>& plans() const { return plans_; }
  uint64_t generation() const { return generation_; }

  // Loading hooks used by ReadServiceProfile: restore a persisted plan's cards and the
  // store generation so a restarted service resumes from its pre-restart measurements.
  PlanCards& LoadPlan(uint64_t fingerprint) { return plans_[fingerprint]; }
  void SetLoadedGeneration(uint64_t generation) { generation_ = generation; }

 private:
  uint64_t generation_ = 0;
  std::map<uint64_t, PlanCards> plans_;
};

// One block per plan: operator rows observed vs estimated with divergence ratios.
std::string RenderCardStore(const CardStore& store);

}  // namespace dfp

#endif  // DFP_SRC_REOPT_CARDSTORE_H_
