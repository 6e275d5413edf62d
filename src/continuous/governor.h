// Adaptive sampling governor: auto-tunes the PMU sampling period per plan fingerprint so that
// measured profiling overhead stays under a configurable budget.
//
// The simulated PMU charges real cycles for every sample capture and buffer flush (src/pmu/pmu.h),
// and the Pmu now reports exactly what it charged (SamplingOverhead). The governor closes the
// loop: after each execution it observes (overhead cycles, busy cycles, armed-event count,
// period used) and solves for the period that puts the plan's CUMULATIVE overhead share at the
// budget — samples(P) = events / P at cost-per-sample cps gives share f(P) = events * cps /
// (P * base), so P* = events * cps / (budget * base), evaluated on the fingerprint's running
// totals. On steady load this is the per-execution analytic optimum and lands in one or two
// observations; on bursty load solving against the totals converges the long-run average share
// to the budget instead of oscillating anti-phase with the bursts. An EWMA damps the step.
//
// The governor is OFF by default: changing the period between executions changes the sample
// stream, which would silently break workflows that rely on byte-identical profiles across
// reruns (warm == cold). Serving layers that want bounded always-on profiling opt in.
#ifndef DFP_SRC_CONTINUOUS_GOVERNOR_H_
#define DFP_SRC_CONTINUOUS_GOVERNOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/pmu/pmu.h"

namespace dfp {

struct GovernorConfig {
  bool enabled = false;
  // Target ceiling for sampling overhead as a share of non-overhead execution cycles.
  double overhead_budget = 0.02;
};

// Clamp range for chosen periods (events between samples).
inline constexpr uint64_t kMinSamplingPeriod = 500;
inline constexpr uint64_t kMaxSamplingPeriod = 5'000'000;

// Per-fingerprint tuning state, exposed for reports and benchmarks.
struct GovernorPlanState {
  uint64_t fingerprint = 0;
  std::string name;
  uint64_t period = 0;            // Period the next execution of this plan will be armed with.
  uint64_t observations = 0;      // Executions folded in.
  uint64_t overhead_cycles = 0;   // Measured capture+flush cycles, cumulative.
  uint64_t busy_cycles = 0;       // Worker busy cycles (includes overhead), cumulative.
  uint64_t samples = 0;           // Samples recorded, cumulative.
  uint64_t armed_events = 0;      // Occurrences of the armed event, cumulative.

  // Cumulative overhead share: overhead / (busy - overhead).
  double OverheadShare() const;
};

class SamplingGovernor {
 public:
  explicit SamplingGovernor(GovernorConfig config = GovernorConfig());

  const GovernorConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  // Period to arm the next execution of `fingerprint` with. Falls back to `default_period`
  // (clamped) on the first sighting or when disabled (then unclamped, pass-through).
  uint64_t PeriodFor(uint64_t fingerprint, uint64_t default_period) const;

  // Folds one completed execution: the overhead the PMU charged, the workers' busy cycles, the
  // total armed-event count the samples were drawn from, and the period that was in force.
  // No-op when disabled.
  void Observe(uint64_t fingerprint, const std::string& name, const SamplingOverhead& overhead,
               uint64_t busy_cycles, uint64_t armed_events, uint64_t period_used);

  // Per-pipeline periods for a plan's next execution, given the critical-path shares of its
  // last one (percent, indexed by pipeline id: PlanCriticality::pipeline_share_pct,
  // src/critpath/). Shares are mean-centered: a pipeline sitting d points above the mean
  // share samples at base * 100 / (100 + d) — strictly shorter than the base — and one d
  // points below at the mirrored strictly longer period, so the critical path's owner is
  // always sampled strictly finer than every off-path pipeline. Because the rate multipliers
  // (100 + d) / 100 sum to the pipeline count, the redistribution is budget-neutral: the
  // samples the budget pays for move from the pipelines that merely burn cycles to the ones
  // that gate latency without raising the total rate the analytic solve in Observe()
  // regulated. Returns an empty vector (uniform sampling) when disabled or when every share is
  // zero.
  std::vector<uint64_t> PipelinePeriods(const std::vector<uint64_t>& pipeline_share_pct,
                                        uint64_t base_period, size_t pipelines) const;

  const std::map<uint64_t, GovernorPlanState>& plans() const { return plans_; }
  const GovernorPlanState* Find(uint64_t fingerprint) const;

  // Fleet-wide cumulative overhead share across all observed executions.
  double OverallShare() const;

  // One line per fingerprint: chosen period, observations, measured share vs. budget.
  std::string Render() const;

 private:
  GovernorConfig config_;
  std::map<uint64_t, GovernorPlanState> plans_;
};

}  // namespace dfp

#endif  // DFP_SRC_CONTINUOUS_GOVERNOR_H_
