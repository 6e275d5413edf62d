// Operator-level regression detection over windowed fleet profiles.
//
// A baseline is a snapshot of each fingerprint's current window rollup (the per-operator sample
// mix plus cycles-per-row and remote-DRAM rates) together with a watermark: the newest window
// index at snapshot time. The detector aggregates every window strictly newer than the
// watermark — all evidence that arrived since the baseline, uncontaminated by pre-baseline
// executions — and flags fingerprints whose mix drifted: an operator's share of attributed
// samples moved beyond a threshold, cycles-per-row grew beyond a ratio, or the remote-DRAM
// share of sampled loads rose. Findings render as a side-by-side cost-annotated diff
// ("HashJoin probe 21% -> 38%, +remote") via RenderCostDiff. A guard (JudgeRegression) checks
// only the two whole-plan rates: the action it judges may renumber operators (a re-planned
// candidate) or move cost between them on purpose (a re-placed scan).
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

// Baselines and post-baseline aggregates with fewer attributed samples than this are skipped
// entirely (quantization guard: at N samples the share resolution is 1/N).
inline constexpr uint64_t kRegressionMinSamples = 20;

// The configurable part of the drift checks; the operator-mix and cycles-per-row thresholds
// are constants of src/continuous/regression.cc.
struct RegressionThresholds {
  // Absolute rise of REMOTE_DRAM events per sampled load that fires.
  double remote_share_drift = 0.10;
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
};

// Snapshot of `fingerprint`'s current rollup, or nullopt when it has fewer than
// kRegressionMinSamples attributed samples (or no windows at all).
std::optional<PlanBaseline> SnapshotPlanBaseline(const WindowedProfile& profile,
                                                 uint64_t fingerprint);

class BaselineStore {
 public:
  // Replaces the stored baselines with a snapshot of `profile`'s current rollups. Fingerprints
  // whose rollup has fewer than kRegressionMinSamples attributed samples are not snapshotted.
  void Snapshot(const WindowedProfile& profile);

  bool empty() const { return baselines_.empty(); }
  const std::map<uint64_t, PlanBaseline>& baselines() const { return baselines_; }
  const PlanBaseline* Find(uint64_t fingerprint) const;

  // Loading hooks used by ReadServiceProfile: restore one persisted baseline (operator
  // rows arrive separately, after their baseline line) so a restarted service resumes
  // regression detection against its pre-restart reference mix. Each returns false, loading
  // nothing, when its fingerprint or operator is already loaded.
  bool AddLoadedBaseline(PlanBaseline baseline);
  bool AddLoadedBaselineOperator(uint64_t fingerprint, WindowOperatorStats stats);

 private:
  std::map<uint64_t, PlanBaseline> baselines_;
};

// One operator's movement between baseline and current mix.
struct OperatorDrift {
  OperatorId op = kNoOperator;
  std::string label;
  double baseline_share = 0;
  double current_share = 0;
  bool flagged = false;  // Drifted past the share threshold plus its noise margin.
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
// kRegressionMinSamples attributed post-watermark samples are skipped. Each finding is stamped
// with `shard_id` and then pushed through `alert` when one is set.
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

// Judges `baseline`'s fingerprint's post-watermark windows against it on cycles-per-row and
// remote-DRAM share only — never the operator mix (src/continuous/guard.h runs the lifecycle
// around it).
GuardVerdict JudgeRegression(const PlanBaseline& baseline, const WindowedProfile& profile,
                             const RegressionThresholds& thresholds = RegressionThresholds());

}  // namespace dfp

#endif  // DFP_SRC_CONTINUOUS_REGRESSION_H_
