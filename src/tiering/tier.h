// Compilation tiers and the tiering configuration of the serving layer.
//
// The paper's profiles become actionable here: instead of always paying the optimizing backend
// up front, a new plan fingerprint starts on a cheap baseline compile (optimization passes
// disabled — Umbra's "flying start" regime), and the continuous-profiling windows decide which
// fingerprints are hot enough to be worth recompiling at the optimizing tier in the background.
#ifndef DFP_SRC_TIERING_TIER_H_
#define DFP_SRC_TIERING_TIER_H_

#include <cstdint>

namespace dfp {

// kOptimized is 0 so existing single-tier artifacts, samples, and serialized streams (which
// never mention a tier) read back as "optimizing backend" unchanged.
enum class PlanTier : uint8_t {
  kOptimized = 0,  // Full optimization pipeline (the engine's historical default).
  kBaseline = 1,   // Cheap compile: optimization passes disabled.
};

const char* TierName(PlanTier tier);

struct TieringConfig {
  // Off by default: every compile goes straight to the optimizing tier and the service behaves
  // exactly as before (byte-identical artifacts, streams, and reports).
  bool enabled = false;
  // Promote a baseline-tier fingerprint once its cumulative critical-path work reaches this
  // multiple of the estimated optimizing-tier compile cost (classic break-even: at 1.0 the
  // plan has already spent as many latency-gating cycles as the recompile costs).
  double break_even_ratio = 1.0;
};

// Never promote before this many completed executions (one-shot queries stay on baseline).
inline constexpr uint64_t kTierMinExecutions = 2;

}  // namespace dfp

#endif  // DFP_SRC_TIERING_TIER_H_
