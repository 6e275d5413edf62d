// Closed-loop profile-guided re-optimization: configuration, action lifecycle, audit trail.
//
// The loop (wired in QueryService): every execution's tuple counts land in the CardStore; when
// a hot fingerprint's worst estimate-vs-observed divergence crosses the trigger threshold, the
// physical planning decisions that depended on those estimates are re-run with the observations
// injected (src/plan/rewrite.h), and the candidate compiles on the background recompile lane at
// the entry's current tier. The swap is guarded, not trusted — the same propose -> apply ->
// re-measure -> keep-or-revert shape as placement repair: a baseline is snapshotted at swap
// time and JudgeRegression over the post-swap windows keeps or reverts. Every transition lands
// in the sample stream as a `reopt` line and in the timeline rendering below.
#ifndef DFP_SRC_REOPT_CONTROLLER_H_
#define DFP_SRC_REOPT_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/continuous/regression.h"
#include "src/plan/rewrite.h"
#include "src/service/plan_cache.h"

namespace dfp {

// Guard thresholds for judging a swapped candidate. A re-planned candidate gets fresh operator
// ids from FinalizePlan, so the per-operator share-drift check would fire on every swap by
// construction; the verdict rests on the id-independent whole-plan rates instead
// (cycles-per-row ratio and remote-DRAM share).
RegressionThresholds ReoptGuardThresholds();

struct ReoptConfig {
  // Off by default: re-optimization changes compiled code and schedules, so it is opt-in like
  // every other closed-loop feature (byte-identical reruns stay the default contract).
  bool enabled = false;
  // Trigger: the fingerprint's worst observed/estimated ratio must reach this many percent
  // (400 = measurements 4x off the estimates that picked the join order).
  uint64_t divergence_pct = 400;
  // Executions before a fingerprint's EWMAs are trusted enough to re-plan.
  uint64_t min_executions = 3;
  // Enable the semi-join-reduction insertion, gated on measured build-side blowup.
  bool semi_join_reduction = false;
  uint64_t semi_join_blowup_pct = 300;
  // Fault injection: rewrite to the WORST measured join order instead of the best. The guard
  // must catch and revert it — tests and the bench drive the revert path this way.
  bool pessimize = false;
  RegressionThresholds guard = ReoptGuardThresholds();
};

// Lifecycle of one re-optimization. kDecided spans the candidate's background compile; a kept
// or reverted action stays in the log as the audit trail and blocks re-triggering on the same
// fingerprint (a kept candidate re-estimated from its own measurements, a reverted one proved
// the measurements misleading — either way the loop must not oscillate).
enum class ReoptState : uint8_t {
  kDecided,   // Divergence crossed the trigger; candidate compiling on the recompile lane.
  kApplied,   // Candidate swapped in; re-measuring against the pre-swap baseline.
  kKept,      // Guard verdict clean: the candidate stays.
  kReverted,  // Guard verdict regressed (or the swap did not survive): original restored.
};

const char* ReoptStateName(ReoptState state);
// Inverse, for profile loading. Returns false on an unknown name.
bool ReoptStateFromName(const std::string& name, ReoptState* out);

struct ReoptAction {
  uint64_t fingerprint = 0;
  std::string plan_name;
  std::string description;  // Rewrite summary, e.g. "reorder 1,0 semijoin".
  ReoptState state = ReoptState::kDecided;
  uint64_t decided_tsc = 0;
  uint64_t applied_tsc = 0;
  uint64_t resolved_tsc = 0;   // Kept/reverted timestamp; 0 while still measuring.
  uint64_t divergence_pct = 0;  // Divergence at decision time.
  bool reordered = false;
  bool semi_join = false;
  // The entry the candidate replaced; re-inserting it is the revert (its machine code stays
  // registered in the code map, so the revert is an atomic pointer swap, not a recompile).
  // Null for actions loaded from a persisted profile.
  CachedPlanPtr previous;
};

// Append-only audit log, one action per fingerprint at a time.
class ReoptLog {
 public:
  ReoptAction& Add(ReoptAction action);
  ReoptAction* Find(uint64_t fingerprint);
  const ReoptAction* Find(uint64_t fingerprint) const;

  const std::vector<ReoptAction>& actions() const { return actions_; }
  uint64_t applied() const;   // Actions currently applied or kept.
  uint64_t kept() const;
  uint64_t reverted() const;  // Actions the guard rolled back.

 private:
  std::vector<ReoptAction> actions_;
};

// Tier-timeline-style rendering: one line per action with its transitions and rewrite summary.
std::string RenderReoptTimeline(const ReoptLog& log);

// Recovers the literal-slot mapping a rewrite induces: element j is the ORIGINAL submission
// slot whose payload feeds the candidate's slot j (possibly duplicating a source slot — a
// semi-join reduction clones build-side literal sites). Empty means identity. Works by
// re-running the same rewrite over a clone whose slots are bound to unique sentinel payloads
// and matching the sentinels back out of the candidate's extraction order; sound because the
// rewrite never reads literal payloads (ordering keys off estimated_rows, which BindLiterals
// does not touch). `observed` and `options` must be exactly what produced the candidate, and
// the rewrite must actually change the plan.
std::vector<uint32_t> ReoptLiteralPermutation(const PhysicalOp& original,
                                              const CardinalityMap& observed,
                                              const ReoptRewriteOptions& options);

}  // namespace dfp

#endif  // DFP_SRC_REOPT_CONTROLLER_H_
