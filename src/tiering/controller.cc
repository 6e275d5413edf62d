#include "src/tiering/controller.h"

#include <algorithm>
#include <limits>

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
  if (state.promoted || state.executions < kTierMinExecutions) {
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
  // Saturating: a ratio too large for any cycle count (or not a number) never promotes.
  const double scaled = config_.break_even_ratio * static_cast<double>(optimizing_compile_cycles);
  const uint64_t threshold = scaled < 0x1p64 ? static_cast<uint64_t>(std::max(scaled, 0.0))
                                             : std::numeric_limits<uint64_t>::max();
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
