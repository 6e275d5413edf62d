// TierController: turns critical-path evidence into promotion decisions.
//
// Every completed execution of a baseline-tier fingerprint is reported here with the
// fingerprint's cumulative critical-path work (src/critpath/): the cycles that actually gated
// query latency, so wide-but-slack pipelines never buy a recompile that cannot move latency.
// The controller promotes once that work crosses the break-even threshold derived from the
// CompileCostModel's optimizing-tier estimate: at that point the plan has already spent more
// latency-gating cycles than the recompile would cost. Promotions are one-shot per fingerprint
// and are logged as TierTransitions, the one record of each promotion; the tier timeline
// report (src/tiering/report.h) renders them.
#ifndef DFP_SRC_TIERING_CONTROLLER_H_
#define DFP_SRC_TIERING_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/tiering/tier.h"

namespace dfp {

// One logged tier decision of the controller.
struct TierTransition {
  uint64_t fingerprint = 0;
  std::string name;
  PlanTier from = PlanTier::kBaseline;
  PlanTier to = PlanTier::kOptimized;
  uint64_t decided_at_cycles = 0;  // Service clock when the break-even threshold was crossed.
  uint64_t swapped_at_cycles = 0;  // Service clock when the recompiled entry went live (0 while
                                   // the background job is still in flight).
  uint64_t rollup_cycles = 0;      // Critical-path work that crossed the threshold.
  uint64_t threshold_cycles = 0;   // break_even_ratio * optimizing compile estimate.
};

class TierController {
 public:
  explicit TierController(TieringConfig config = TieringConfig()) : config_(config) {}

  const TieringConfig& config() const { return config_; }

  // Reports one completed baseline-tier execution of `fingerprint`, whose cumulative
  // critical-path work is now `critical_path_cycles`. Returns true exactly once: when that
  // work first crosses the break-even threshold — the caller then enqueues the background
  // recompilation.
  bool Observe(uint64_t fingerprint, const std::string& name, uint64_t critical_path_cycles,
               uint64_t optimizing_compile_cycles, uint64_t now_cycles);

  // Marks the pending transition of `fingerprint` as swapped in at `now_cycles`.
  void MarkSwapped(uint64_t fingerprint, uint64_t now_cycles);

  const std::vector<TierTransition>& transitions() const { return transitions_; }

 private:
  struct TierState {
    uint64_t executions = 0;
    bool promoted = false;
  };

  TieringConfig config_;
  std::map<uint64_t, TierState> state_;
  std::vector<TierTransition> transitions_;
};

}  // namespace dfp

#endif  // DFP_SRC_TIERING_CONTROLLER_H_
