// SlackStore: per-fingerprint expected slack, rolled up from prior executions' task DAGs.
//
// BuildTaskDag answers "which task gated *this* run"; the scheduler needs the forward-looking
// question — "which morsels of the *next* run are likely to gate it". The store folds every
// observed DAG into a compact per-(step, pipeline) profile: the scanned row range is cut into
// kSlackBuckets equal buckets and each bucket keeps an EWMA of the minimum slack its morsel
// tasks showed (minimum, because one zero-slack morsel in a bucket makes the whole bucket
// urgent — deferring it delays the barrier). ParallelRun reads the profile to order per-worker
// deques and pick steal victims; admission reads the EWMA critical-path length to judge
// deadline feasibility from the path a perfectly scheduled run would still have to walk,
// rather than from total work.
//
// The rollup is pure integer arithmetic over recorded DAGs, so a service that observes the
// same execution sequence always holds the same store — expected slack is as deterministic as
// the schedules it summarizes. Plans that stop being observed age out after kSlackMaxAge
// generations (one generation per Observe call), keeping the store bounded under fingerprint
// churn. The store round-trips through the service state file (src/service/service_profile.h).
#ifndef DFP_SRC_CRITPATH_SLACK_H_
#define DFP_SRC_CRITPATH_SLACK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/critpath/dag.h"

namespace dfp {

// Row-range buckets per (step, pipeline). 16 keeps a step's profile in one cache line pair
// while still separating a skewed scan's expensive head from its cheap tail.
inline constexpr uint32_t kSlackBuckets = 16;

// Expected slack of one exec step's pipeline tasks, bucketed by morsel row range.
struct StepSlack {
  uint32_t step = 0;
  uint32_t pipeline = 0;
  uint64_t rows = 0;  // Largest morsel_end observed — the bucket denominator.
  // EWMA of the per-run minimum slack among the bucket's tasks; UINT64_MAX = never observed
  // (no morsel of any folded run landed in the bucket).
  uint64_t bucket_slack[kSlackBuckets] = {};

  StepSlack() {
    for (uint64_t& b : bucket_slack) {
      b = UINT64_MAX;
    }
  }

  // Expected slack of a morsel starting at `begin`; UINT64_MAX when the bucket (or the whole
  // step) was never observed.
  uint64_t SlackAt(uint64_t begin) const;
};

// One fingerprint's rollup: expected critical-path length plus per-step slack profiles.
struct PlanSlack {
  uint64_t fingerprint = 0;
  std::string name;
  uint64_t executions = 0;           // DAGs folded in.
  uint64_t generation = 0;           // Store generation of the most recent fold (for age-out).
  uint64_t critical_path_cycles = 0; // EWMA of dag.critical_work_cycles.
  std::vector<StepSlack> steps;      // Sorted by (step, pipeline).

  const StepSlack* FindStep(uint32_t step, uint32_t pipeline) const;
};

// Generations a plan survives without a fold before it ages out of the store.
inline constexpr uint64_t kSlackMaxAge = 64;

class SlackStore {
 public:
  // Folds one completed execution's DAG. Advances the store generation, updates the
  // fingerprint's EWMAs (new = (3*old + observed) / 4, integer), and ages out plans whose last
  // fold is more than kSlackMaxAge generations stale.
  void Observe(uint64_t fingerprint, const std::string& name, const TaskDag& dag);

  const PlanSlack* Find(uint64_t fingerprint) const;

  // Expected critical-path length for deadline admission; 0 = never observed (admit — the
  // first execution is how the store learns).
  uint64_t ExpectedCriticalPathCycles(uint64_t fingerprint) const;

  uint64_t generation() const { return generation_; }
  const std::map<uint64_t, PlanSlack>& plans() const { return plans_; }

  // Persistence hooks (service state file): the reader reconstructs a store entry for entry.
  // SetLoadedGeneration restores the clock so age-out resumes where the saved service left off.
  PlanSlack& LoadPlan(uint64_t fingerprint);
  void SetLoadedGeneration(uint64_t generation) { generation_ = generation; }

 private:
  uint64_t generation_ = 0;
  std::map<uint64_t, PlanSlack> plans_;
};

}  // namespace dfp

#endif  // DFP_SRC_CRITPATH_SLACK_H_
