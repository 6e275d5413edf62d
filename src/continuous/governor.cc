#include "src/continuous/governor.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/util/check.h"

namespace dfp {

double GovernorPlanState::OverheadShare() const {
  if (busy_cycles <= overhead_cycles) {
    return 0;
  }
  return static_cast<double>(overhead_cycles) /
         static_cast<double>(busy_cycles - overhead_cycles);
}

namespace {

uint64_t Clamp(uint64_t period) {
  return std::clamp(period, kMinSamplingPeriod, kMaxSamplingPeriod);
}

// Rounds a solved period into the clamp range; a solve too large for any period (or not a
// number) saturates at the ceiling instead of overflowing the integer conversion.
uint64_t ClampSolved(double period) {
  if (!(period < static_cast<double>(kMaxSamplingPeriod))) {
    return kMaxSamplingPeriod;
  }
  return Clamp(static_cast<uint64_t>(std::max(period, 0.0) + 0.5));
}

}  // namespace

SamplingGovernor::SamplingGovernor(GovernorConfig config) : config_(config) {
  DFP_CHECK(config_.overhead_budget > 0);
}

uint64_t SamplingGovernor::PeriodFor(uint64_t fingerprint, uint64_t default_period) const {
  if (!config_.enabled) {
    return default_period;
  }
  auto it = plans_.find(fingerprint);
  if (it != plans_.end() && it->second.period != 0) {
    return it->second.period;
  }
  return Clamp(default_period);
}

void SamplingGovernor::Observe(uint64_t fingerprint, const std::string& name,
                               const SamplingOverhead& overhead, uint64_t busy_cycles,
                               uint64_t armed_events, uint64_t period_used) {
  if (!config_.enabled || period_used == 0) {
    return;
  }
  GovernorPlanState& state = plans_[fingerprint];
  if (state.observations == 0) {
    state.fingerprint = fingerprint;
    state.name = name;
    state.period = Clamp(period_used);
  }
  ++state.observations;
  state.overhead_cycles += overhead.total_cycles();
  state.busy_cycles += busy_cycles;
  state.samples += overhead.samples;
  state.armed_events += armed_events;

  uint64_t target = state.period;
  const uint64_t cum_base = state.busy_cycles > state.overhead_cycles
                                ? state.busy_cycles - state.overhead_cycles
                                : state.busy_cycles;
  if (state.samples == 0) {
    // Period too coarse to see anything yet: halve towards the floor so the plan stays profiled.
    target = Clamp(period_used / 2);
  } else if (cum_base > 0 && state.armed_events > 0) {
    // Solved on the fingerprint's running totals: the per-event average sample cost and event
    // density over all observations, so bursts average out instead of whipsawing the period.
    // `cum_base` excludes the overhead itself — the budget is relative to useful work.
    const double cps = static_cast<double>(state.overhead_cycles) /
                       static_cast<double>(state.samples);
    const double events_per_obs = static_cast<double>(state.armed_events) /
                                  static_cast<double>(state.observations);
    const double base_per_obs = static_cast<double>(cum_base) /
                                static_cast<double>(state.observations);
    const double solved = events_per_obs * cps / (config_.overhead_budget * base_per_obs);
    target = ClampSolved(solved);
  }
  // EWMA weight of the newest analytic solve (1.0 would jump straight to it).
  constexpr double kSmoothing = 0.7;
  const double blended = kSmoothing * static_cast<double>(target) +
                         (1.0 - kSmoothing) * static_cast<double>(state.period);
  state.period = ClampSolved(blended);
}

std::vector<uint64_t> SamplingGovernor::PipelinePeriods(
    const std::vector<uint64_t>& pipeline_share_pct, uint64_t base_period,
    size_t pipelines) const {
  if (!config_.enabled || base_period == 0 ||
      std::all_of(pipeline_share_pct.begin(), pipeline_share_pct.end(),
                  [](uint64_t share) { return share == 0; })) {
    return {};  // No criticality signal (or a degenerate DAG): keep uniform sampling.
  }
  // Mean-centered redistribution: a pipeline whose criticality share sits `d` points above the
  // mean samples at base * 100 / (100 + d), one below the mean at the mirrored longer period.
  // The rate multipliers (100 + d) / 100 sum to the pipeline count by construction, so the
  // expected total sample rate — and with it the overhead the budget solve regulated — is
  // unchanged; the weighting only moves samples from the pipelines that merely burn cycles to
  // the ones that gate latency.
  uint64_t share_sum = 0;
  for (size_t p = 0; p < pipelines; ++p) {
    share_sum += p < pipeline_share_pct.size() ? pipeline_share_pct[p] : 0;
  }
  const uint64_t mean_share = pipelines == 0 ? 0 : share_sum / pipelines;
  std::vector<uint64_t> periods(pipelines, 0);
  for (size_t p = 0; p < pipelines; ++p) {
    const uint64_t share = p < pipeline_share_pct.size() ? pipeline_share_pct[p] : 0;
    if (share > mean_share) {
      // Above the mean (the critical path's owner): strictly below the base (the clamp floor
      // cannot collide — the base itself is already clamped to >= kMinSamplingPeriod).
      periods[p] = std::max<uint64_t>(1, base_period * 100 / (100 + share - mean_share));
    } else if (share < mean_share) {
      // Below the mean (off-path, or barely on it): strictly above the base by the mirrored
      // factor, bounded by the clamp ceiling.
      const uint64_t denom = std::max<uint64_t>(1, 100 - (mean_share - share));
      periods[p] = std::min(kMaxSamplingPeriod,
                            std::max(base_period + 1, base_period * 100 / denom));
    } else {
      periods[p] = base_period;  // At the mean: nothing to redistribute.
    }
  }
  return periods;
}

const GovernorPlanState* SamplingGovernor::Find(uint64_t fingerprint) const {
  auto it = plans_.find(fingerprint);
  return it == plans_.end() ? nullptr : &it->second;
}

double SamplingGovernor::OverallShare() const {
  uint64_t overhead = 0;
  uint64_t busy = 0;
  for (const auto& [fingerprint, state] : plans_) {
    (void)fingerprint;
    overhead += state.overhead_cycles;
    busy += state.busy_cycles;
  }
  if (busy <= overhead) {
    return 0;
  }
  return static_cast<double>(overhead) / static_cast<double>(busy - overhead);
}

std::string SamplingGovernor::Render() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "=== Sampling governor (budget %.2f%%, period [%llu, %llu]) ===\n",
                100.0 * config_.overhead_budget,
                static_cast<unsigned long long>(kMinSamplingPeriod),
                static_cast<unsigned long long>(kMaxSamplingPeriod));
  out << line;
  for (const auto& [fingerprint, state] : plans_) {
    std::snprintf(line, sizeof(line),
                  "%016llx  %-24s period %8llu  obs %4llu  samples %8llu  overhead %.3f%%\n",
                  static_cast<unsigned long long>(fingerprint), state.name.c_str(),
                  static_cast<unsigned long long>(state.period),
                  static_cast<unsigned long long>(state.observations),
                  static_cast<unsigned long long>(state.samples),
                  100.0 * state.OverheadShare());
    out << line;
  }
  std::snprintf(line, sizeof(line), "overall overhead %.3f%% of useful cycles\n",
                100.0 * OverallShare());
  out << line;
  return out.str();
}

}  // namespace dfp
