#include "src/tiering/controller.h"

#include <algorithm>

namespace dfp {

bool TierController::Observe(uint64_t fingerprint, const std::string& name,
                             const WindowedProfile& windows, uint64_t execute_cycles,
                             uint64_t optimizing_compile_cycles, uint64_t now_cycles,
                             uint64_t critical_path_cycles) {
  if (!config_.enabled) {
    return false;
  }
  TierState& state = state_[fingerprint];
  ++state.executions;
  state.cumulative_cycles += execute_cycles;
  if (state.promoted || state.executions < config_.min_executions) {
    return false;
  }
  // Critical-path evidence when the caller supplies it (cycles that gated latency); otherwise
  // windowed evidence when available (recent-rate semantics; old windows fall off the ring),
  // with a cumulative fallback when the service runs without windows.
  uint64_t evidence;
  if (critical_path_cycles != 0) {
    evidence = critical_path_cycles;
  } else {
    const WindowRollup rollup = windows.RollUp(fingerprint);
    evidence = std::max(rollup.execute_cycles, state.cumulative_cycles);
  }
  const uint64_t threshold = static_cast<uint64_t>(
      config_.break_even_ratio * static_cast<double>(optimizing_compile_cycles));
  if (evidence < threshold) {
    return false;
  }
  state.promoted = true;
  TierTransition transition;
  transition.fingerprint = fingerprint;
  transition.name = name;
  transition.from = PlanTier::kBaseline;
  transition.to = PlanTier::kOptimized;
  transition.decided_at_cycles = now_cycles;
  transition.rollup_cycles = evidence;
  transition.threshold_cycles = threshold;
  transitions_.push_back(std::move(transition));
  return true;
}

void TierController::MarkSwapped(uint64_t fingerprint, uint64_t now_cycles) {
  for (auto it = transitions_.rbegin(); it != transitions_.rend(); ++it) {
    if (it->fingerprint == fingerprint && it->swapped_at_cycles == 0) {
      it->swapped_at_cycles = now_cycles;
      return;
    }
  }
}

}  // namespace dfp
