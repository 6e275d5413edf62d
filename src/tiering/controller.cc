#include "src/tiering/controller.h"

#include <algorithm>
#include <limits>

namespace dfp {

bool TierController::Observe(uint64_t fingerprint, const std::string& name,
                             uint64_t critical_path_cycles, uint64_t optimizing_compile_cycles,
                             uint64_t now_cycles) {
  if (!config_.enabled) {
    return false;
  }
  TierState& state = state_[fingerprint];
  ++state.executions;
  if (state.promoted || state.executions < kTierMinExecutions) {
    return false;
  }
  // Saturating: a ratio too large for any cycle count (or not a number) never promotes.
  const double scaled = config_.break_even_ratio * static_cast<double>(optimizing_compile_cycles);
  const uint64_t threshold = scaled < 0x1p64 ? static_cast<uint64_t>(std::max(scaled, 0.0))
                                             : std::numeric_limits<uint64_t>::max();
  if (critical_path_cycles < threshold) {
    return false;
  }
  state.promoted = true;
  TierTransition transition;
  transition.fingerprint = fingerprint;
  transition.name = name;
  transition.from = PlanTier::kBaseline;
  transition.to = PlanTier::kOptimized;
  transition.decided_at_cycles = now_cycles;
  transition.rollup_cycles = critical_path_cycles;
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
