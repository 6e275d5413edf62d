// Operator-level regression detection over windowed fleet profiles.
//
// A baseline is a snapshot of each fingerprint's current window rollup (the per-operator sample
// mix plus cycles-per-row and remote-DRAM rates) together with a watermark: the newest window
// index at snapshot time. The detector aggregates every window strictly newer than the
// watermark — all evidence that arrived since the baseline, uncontaminated by pre-baseline
// executions — and flags fingerprints whose mix drifted: an operator's share of attributed
// samples moved beyond a threshold, cycles-per-row grew beyond a ratio, or the remote-DRAM
// share of sampled loads rose. Findings render as a side-by-side cost-annotated diff
// ("HashJoin probe 21% -> 38%, +remote") via RenderCostDiff.
//
// Because the whole engine is deterministic, re-running an identical workload reproduces the
// baseline mix exactly — the detector is silent on identical reruns by construction, which the
// CI determinism job asserts.
#ifndef DFP_SRC_CONTINUOUS_REGRESSION_H_
#define DFP_SRC_CONTINUOUS_REGRESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/continuous/window.h"

namespace dfp {

struct RegressionThresholds {
  // Operators below this share in both baseline and current are ignored (noise floor).
  double min_share = 0.05;
  // Absolute drift in an operator's share of attributed samples that fires a finding.
  double share_drift = 0.10;
  // Sampled shares are estimates: at n samples a share is only resolved to a few points. The
  // drift must additionally exceed `share_noise_z` two-proportion standard errors
  // (z * sqrt(p(1-p)(1/n_base + 1/n_current)), pooled p) before it counts — otherwise sparse
  // windows fire on sampling jitter, e.g. when the governor coarsens the period. Exact
  // counters (cycles/row, remote share) carry no such margin.
  double share_noise_z = 3.0;
  // Current cycles-per-row must exceed baseline * ratio to fire.
  double cycles_per_row_ratio = 1.25;
  // Absolute rise of REMOTE_DRAM events per sampled load that fires.
  double remote_share_drift = 0.10;
  // Post-baseline aggregates with fewer attributed samples than this are skipped entirely
  // (quantization guard: at N samples the share resolution is 1/N).
  uint64_t min_samples = 20;
};

// Frozen per-fingerprint reference mix.
struct PlanBaseline {
  uint64_t fingerprint = 0;
  std::string name;
  uint64_t samples = 0;
  uint64_t watermark = 0;  // Newest window index at snapshot time; newer windows are "current".
  double cycles_per_row = 0;
  double remote_share = 0;
  std::map<OperatorId, WindowOperatorStats> operators;  // Sample mix at snapshot time.

  double OperatorShare(OperatorId op) const;
};

// Snapshot of `fingerprint`'s current rollup, or nullopt when it has fewer than `min_samples`
// attributed samples (or no windows at all).
std::optional<PlanBaseline> SnapshotPlanBaseline(const WindowedProfile& profile,
                                                 uint64_t fingerprint, uint64_t min_samples);

class BaselineStore {
 public:
  // Replaces the stored baselines with a snapshot of `profile`'s current rollups. Fingerprints
  // whose rollup has fewer than `min_samples` attributed samples are not snapshotted.
  void Snapshot(const WindowedProfile& profile, uint64_t min_samples = 0);

  bool empty() const { return baselines_.empty(); }
  const std::map<uint64_t, PlanBaseline>& baselines() const { return baselines_; }
  const PlanBaseline* Find(uint64_t fingerprint) const;

  // Loading hooks used by ReadServiceProfile (v3): restore one persisted baseline (operator
  // rows arrive separately, after their baseline line) so a restarted service resumes
  // regression detection against its pre-restart reference mix.
  void AddLoadedBaseline(PlanBaseline baseline);
  void AddLoadedBaselineOperator(uint64_t fingerprint, WindowOperatorStats stats);

 private:
  std::map<uint64_t, PlanBaseline> baselines_;
};

// One operator's movement between baseline and current mix.
struct OperatorDrift {
  OperatorId op = kNoOperator;
  std::string label;
  double baseline_share = 0;
  double current_share = 0;
  bool flagged = false;  // |current - baseline| > share_drift (above the noise floor).
};

// One fingerprint that drifted beyond the thresholds.
struct RegressionFinding {
  uint64_t fingerprint = 0;
  std::string name;
  // Service shard whose profile produced the finding (1-based; 0 = unsharded). Stamped before
  // the alert hook fires, so fleet-wide alert sinks can tell WHERE a plan regressed without
  // re-deriving it from which shard's detector they subscribed to.
  uint32_t shard_id = 0;
  bool share_regressed = false;
  bool cycles_per_row_regressed = false;
  bool remote_regressed = false;
  double baseline_cycles_per_row = 0;
  double current_cycles_per_row = 0;
  double baseline_remote_share = 0;
  double current_remote_share = 0;
  std::vector<OperatorDrift> drifts;  // Every operator above the noise floor, flagged or not.
};

// Alerting hook: invoked once per finding, in fingerprint order, as DetectRegressions flags
// it — the push path that turns the pull-style report into an operational signal.
using RegressionAlertFn = std::function<void(const RegressionFinding&)>;

// Diffs each fingerprint's post-watermark window aggregate against its `baseline` entry.
// Fingerprints without a baseline, without post-watermark windows, or with fewer than
// min_samples attributed post-watermark samples are skipped. Each finding is stamped with
// `shard_id` and then pushed through `alert` when one is set.
std::vector<RegressionFinding> DetectRegressions(
    const BaselineStore& baseline, const WindowedProfile& profile,
    const RegressionThresholds& thresholds = RegressionThresholds(),
    const RegressionAlertFn& alert = nullptr, uint32_t shard_id = 0);

// Side-by-side cost-annotated report of all findings (empty-finding list renders a quiet note).
std::string RenderRegressionReport(const std::vector<RegressionFinding>& findings);

// Three-way verdict for closed-loop actions (propose -> apply -> re-measure -> keep-or-revert):
// a guarded optimization keeps waiting on kInsufficientEvidence, keeps the action on kClean,
// and reverts on kRegressed. Distinct from DetectRegressions' findings list because "no
// finding" must not be conflated with "not enough post-action windows to judge yet".
enum class GuardVerdict : uint8_t {
  kInsufficientEvidence,  // No baseline, or too few post-watermark samples — keep measuring.
  kClean,                 // Enough evidence, no drift beyond thresholds — keep the action.
  kRegressed,             // The action made the fingerprint worse — revert it.
};

// Judges `baseline`'s fingerprint's post-watermark windows against it using the same drift
// checks as DetectRegressions (src/continuous/guard.h runs the lifecycle around it).
GuardVerdict JudgeRegression(const PlanBaseline& baseline, const WindowedProfile& profile,
                             const RegressionThresholds& thresholds = RegressionThresholds());

}  // namespace dfp

#endif  // DFP_SRC_CONTINUOUS_REGRESSION_H_
