// Windowed fleet profiles: a ring of fixed-width simulated-TSC windows per plan fingerprint.
//
// The cumulative ServiceProfile answers "what is hot overall"; a long-lived serving process also
// needs "what changed since yesterday". Each completed execution folds into the window of the
// service clock at completion time (window index = service TSC / width). A window holds the
// per-operator sample histogram (sample counts plus period-scaled cycle estimates), cache-miss
// and REMOTE_DRAM event counters, and latency quantiles of the executions that completed inside
// it. Only the newest kRingWindows windows per fingerprint are retained, so the structure is a
// bounded sliding history rather than an ever-growing log. Roll-up, text rendering, and a
// deterministic JSON export make the windows consumable offline; the service-profile text format
// embeds them next to the cumulative counters (see src/service/service_profile.h).
//
// This layer is deliberately service-agnostic: it keys on the raw structural fingerprint hash
// and consumes the same OperatorProfile/PmuCounters every report is built from, so it can also
// aggregate streams replayed from serialized profiles.
#ifndef DFP_SRC_CONTINUOUS_WINDOW_H_
#define DFP_SRC_CONTINUOUS_WINDOW_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/engine/exec_plan.h"
#include "src/profiling/reports.h"
#include "src/tiering/tier.h"

namespace dfp {

struct WindowConfig {
  // Width of one window in simulated service-clock cycles. The default is ~5 simulated ms at
  // the 4 GHz clock — several queries per window at the experiment scales.
  uint64_t width_cycles = 20'000'000;
};

// Windows retained per fingerprint; older windows fall off the ring.
inline constexpr size_t kRingWindows = 8;

// One operator's slice of one window.
struct WindowOperatorStats {
  OperatorId op = kNoOperator;
  std::string label;
  uint64_t samples = 0;
  // Samples scaled by the sampling period in force when they were folded — an estimate of the
  // cycles this operator consumed in the window that stays comparable while the adaptive
  // governor retunes the period between executions.
  uint64_t sample_cycles = 0;
};

// One fixed-width window of one fingerprint's history.
struct ProfileWindow {
  uint64_t index = 0;  // Service TSC / width: [index * width, (index + 1) * width).
  uint64_t executions = 0;
  uint64_t samples = 0;  // Operator-attributed samples folded into this window.
  // Slice of the above that ran at the baseline (cheap-compile) tier; the optimized-tier share
  // is the difference. These make tier transitions visible in the window history itself: a
  // promoted fingerprint's rings show baseline counts draining to zero.
  uint64_t baseline_executions = 0;
  uint64_t baseline_samples = 0;
  uint64_t execute_cycles = 0;  // Summed per-execution simulated wall clocks.
  uint64_t rows = 0;            // Summed result rows (cycles-per-row denominator).
  // Event counters summed over the executions of this window.
  uint64_t loads = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_misses = 0;
  uint64_t remote_dram = 0;
  // Latency quantiles (simulated cycles) over this window's completed executions,
  // nearest-rank. Recomputed as executions fold in; serialized as plain fields so loaded
  // profiles render identically.
  uint64_t latency_p50 = 0;
  uint64_t latency_p95 = 0;
  uint64_t latency_max = 0;
  std::map<OperatorId, WindowOperatorStats> operators;

  // Raw latencies backing the quantiles; kept only on live windows (not serialized).
  std::vector<uint64_t> latencies;
};

// The retained window ring of one fingerprint.
struct PlanWindowSeries {
  uint64_t fingerprint = 0;
  std::string name;
  std::deque<ProfileWindow> windows;  // Ascending by index; bounded by WindowConfig.
};

// All retained windows of one fingerprint collapsed into a single aggregate — the shape the
// regression differ and the fleet reports consume.
struct WindowRollup {
  uint64_t fingerprint = 0;
  std::string name;
  uint64_t window_count = 0;
  uint64_t executions = 0;
  uint64_t samples = 0;
  uint64_t baseline_executions = 0;
  uint64_t baseline_samples = 0;
  uint64_t execute_cycles = 0;
  uint64_t rows = 0;
  uint64_t loads = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t l3_misses = 0;
  uint64_t remote_dram = 0;
  uint64_t latency_p50 = 0;  // Execution-weighted median of the window medians.
  uint64_t latency_p95 = 0;  // Max over windows (conservative tail).
  uint64_t latency_max = 0;
  std::map<OperatorId, WindowOperatorStats> operators;

  double CyclesPerRow() const;
  double RemoteDramShare() const;
};

// `op`'s share of the `samples` attributed samples `operators` splits (0 when there are none):
// the one share rule of rollups and regression baselines.
double OperatorShare(const std::map<OperatorId, WindowOperatorStats>& operators, uint64_t samples,
                     OperatorId op);

class WindowedProfile {
 public:
  explicit WindowedProfile(WindowConfig config = WindowConfig());

  const WindowConfig& config() const { return config_; }
  void set_config(const WindowConfig& config) { config_ = config; }

  // Folds one completed execution into `fingerprint`'s window at service time `now_cycles`.
  // `profile` carries the per-operator sample aggregation, `counters` the execution's merged
  // PMU event counts, and `sampling_period` the period the samples were taken at (scales the
  // per-operator cycle estimate). Executions without operator attribution still contribute
  // latency, counters, and row counts. `tier` is the compilation tier the execution ran at;
  // the default keeps pre-tiering callers unchanged.
  void Record(uint64_t fingerprint, const std::string& name, uint64_t now_cycles,
              const OperatorProfile& profile, const PmuCounters& counters,
              uint64_t execute_cycles, uint64_t result_rows, uint64_t sampling_period,
              PlanTier tier = PlanTier::kOptimized);

  bool empty() const { return plans_.empty(); }
  const std::map<uint64_t, PlanWindowSeries>& plans() const { return plans_; }

  // Collapses one fingerprint's retained windows (empty rollup if unknown).
  WindowRollup RollUp(uint64_t fingerprint) const;
  // Same, restricted to windows with index >= `min_index` — "everything since the watermark",
  // the aggregate the regression detector compares against a baseline snapshot.
  WindowRollup RollUpSince(uint64_t fingerprint, uint64_t min_index) const;
  // Rollups of every fingerprint, ascending by fingerprint.
  std::vector<WindowRollup> RollUpAll() const;

  // The newest retained window of `fingerprint`, or null — the "current mix" the regression
  // detector compares against a baseline snapshot.
  const ProfileWindow* LatestWindow(uint64_t fingerprint) const;

  // Human-readable report: per fingerprint, one line per retained window plus a rollup line.
  std::string Render() const;

  // Deterministic JSON export (integers only; key order fixed) — diffable across runs, which
  // is what the CI determinism job checks.
  void WriteJson(std::ostream& out) const;

  // Loading hooks used by ReadServiceProfile: windows and their operator rows arrive in
  // file order; the ring bound is enforced as they load. LoadWindowOperator returns false,
  // loading nothing, when the window already holds the operator.
  void LoadWindow(uint64_t fingerprint, const std::string& name, ProfileWindow window);
  bool LoadWindowOperator(uint64_t fingerprint, uint64_t window_index, WindowOperatorStats stats);

 private:
  ProfileWindow& WindowFor(PlanWindowSeries& series, uint64_t index);

  WindowConfig config_;
  std::map<uint64_t, PlanWindowSeries> plans_;
};

}  // namespace dfp

#endif  // DFP_SRC_CONTINUOUS_WINDOW_H_
