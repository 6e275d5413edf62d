// Closed-loop profile-guided re-optimization: configuration and the guarded-action payload.
//
// The loop (wired in QueryService): every execution's tuple counts land in the CardStore; when
// a hot fingerprint's worst estimate-vs-observed divergence crosses the trigger threshold, the
// physical planning decisions that depended on those estimates are re-run with the observations
// injected (src/plan/rewrite.h), and the candidate compiles on the background recompile lane at
// the entry's current tier. The swap is guarded, not trusted — it runs the same decided ->
// applied -> kept/reverted lifecycle as placement repair (src/continuous/guard.h): a baseline
// is snapshotted at swap time and JudgeRegression over the post-swap windows keeps or reverts.
// Every transition lands in the sample stream as a `reopt` line and in RenderGuardTimeline's
// rendering.
#ifndef DFP_SRC_REOPT_CONTROLLER_H_
#define DFP_SRC_REOPT_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/continuous/guard.h"
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

// Payload of a re-optimization guarded action (src/continuous/guard.h). kDecided spans the
// candidate's background compile; reverting re-inserts the entry the candidate replaced.
struct ReoptPayload {
  static constexpr const char* kName = "reopt";
  static constexpr const char* kNone = "re-optimizations";

  std::string description;      // Rewrite summary, e.g. "reorder 1,0 semijoin".
  uint64_t divergence_pct = 0;  // Divergence at decision time.
  bool reordered = false;
  bool semi_join = false;
  // The entry the candidate replaced; re-inserting it is the revert (its machine code stays
  // registered in the code map, so the revert is an atomic pointer swap, not a recompile).
  // Null once resolved, and for actions loaded from a persisted profile.
  CachedPlanPtr previous;

  std::string Subject() const { return ""; }
  // "divergence=<pct>%[ <description>]".
  std::string Detail() const;
};

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
