#include "src/continuous/regression.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "src/profiling/reports.h"
#include "src/util/check.h"

namespace dfp {
namespace {

// Operators below this share in both baseline and current are ignored (noise floor).
constexpr double kMinShare = 0.05;
// Absolute drift in an operator's share of attributed samples that fires a finding.
constexpr double kShareDrift = 0.10;
// Sampled shares are estimates: at n samples a share is only resolved to a few points. The
// drift must additionally exceed this many two-proportion standard errors
// (z * sqrt(p(1-p)(1/n_base + 1/n_current)), pooled p) before it counts — otherwise sparse
// windows fire on sampling jitter, e.g. when the governor coarsens the period. Exact counters
// (cycles/row, remote share) carry no such margin.
constexpr double kShareNoiseZ = 3.0;
// Current cycles-per-row must exceed baseline * ratio to fire.
constexpr double kCyclesPerRowRatio = 1.25;

// The whole-plan rate checks DetectRegressions and JudgeRegression share: fills `finding`'s
// rates from `base` vs `current` and returns true when either check fired. `current` must
// already have enough samples (the callers gate on kRegressionMinSamples).
bool DiffRates(const PlanBaseline& base, const WindowRollup& current,
               const RegressionThresholds& thresholds, RegressionFinding* finding) {
  finding->fingerprint = base.fingerprint;
  finding->name = base.name;
  finding->baseline_cycles_per_row = base.cycles_per_row;
  finding->current_cycles_per_row = current.CyclesPerRow();
  finding->baseline_remote_share = base.remote_share;
  finding->current_remote_share = current.RemoteDramShare();
  finding->cycles_per_row_regressed =
      base.cycles_per_row > 0 &&
      finding->current_cycles_per_row > base.cycles_per_row * kCyclesPerRowRatio;
  finding->remote_regressed = finding->current_remote_share - finding->baseline_remote_share >
                              thresholds.remote_share_drift;
  return finding->cycles_per_row_regressed || finding->remote_regressed;
}

// The operator-mix check (DetectRegressions only): records every operator above the noise
// floor in `finding->drifts` and returns true when one drifted.
bool DiffMix(const PlanBaseline& base, const WindowRollup& current, RegressionFinding* finding) {
  // Union of operators on either side, in operator-id order.
  std::set<OperatorId> ops;
  for (const auto& [op, stats] : base.operators) {
    (void)stats;
    ops.insert(op);
  }
  for (const auto& [op, stats] : current.operators) {
    (void)stats;
    ops.insert(op);
  }
  for (OperatorId op : ops) {
    OperatorDrift drift;
    drift.op = op;
    auto base_it = base.operators.find(op);
    auto cur_it = current.operators.find(op);
    drift.label = cur_it != current.operators.end() ? cur_it->second.label
                                                    : base_it->second.label;
    drift.baseline_share = OperatorShare(base.operators, base.samples, op);
    drift.current_share = OperatorShare(current.operators, current.samples, op);
    if (drift.baseline_share < kMinShare && drift.current_share < kMinShare) {
      continue;
    }
    const uint64_t base_hits = base_it != base.operators.end() ? base_it->second.samples : 0;
    const uint64_t cur_hits = cur_it != current.operators.end() ? cur_it->second.samples : 0;
    const double pooled = static_cast<double>(base_hits + cur_hits) /
                          static_cast<double>(base.samples + current.samples);
    const double stderr_drift =
        std::sqrt(pooled * (1.0 - pooled) *
                  (1.0 / static_cast<double>(base.samples) +
                   1.0 / static_cast<double>(current.samples)));
    drift.flagged = std::abs(drift.current_share - drift.baseline_share) >
                    kShareDrift + kShareNoiseZ * stderr_drift;
    finding->share_regressed |= drift.flagged;
    finding->drifts.push_back(std::move(drift));
  }
  return finding->share_regressed;
}

}  // namespace

std::optional<PlanBaseline> SnapshotPlanBaseline(const WindowedProfile& profile,
                                                 uint64_t fingerprint) {
  const ProfileWindow* latest = profile.LatestWindow(fingerprint);
  WindowRollup rollup = profile.RollUp(fingerprint);
  if (latest == nullptr || rollup.samples < kRegressionMinSamples) {
    return std::nullopt;
  }
  PlanBaseline baseline;
  baseline.fingerprint = fingerprint;
  baseline.name = rollup.name;
  baseline.samples = rollup.samples;
  baseline.watermark = latest->index;
  baseline.cycles_per_row = rollup.CyclesPerRow();
  baseline.remote_share = rollup.RemoteDramShare();
  baseline.operators = std::move(rollup.operators);
  return baseline;
}

void BaselineStore::Snapshot(const WindowedProfile& profile) {
  baselines_.clear();
  for (const auto& [fingerprint, series] : profile.plans()) {
    (void)series;
    if (std::optional<PlanBaseline> baseline = SnapshotPlanBaseline(profile, fingerprint)) {
      baselines_[fingerprint] = std::move(*baseline);
    }
  }
}

const PlanBaseline* BaselineStore::Find(uint64_t fingerprint) const {
  auto it = baselines_.find(fingerprint);
  return it == baselines_.end() ? nullptr : &it->second;
}

bool BaselineStore::AddLoadedBaseline(PlanBaseline baseline) {
  const uint64_t fingerprint = baseline.fingerprint;
  return baselines_.try_emplace(fingerprint, std::move(baseline)).second;
}

bool BaselineStore::AddLoadedBaselineOperator(uint64_t fingerprint, WindowOperatorStats stats) {
  auto it = baselines_.find(fingerprint);
  if (it == baselines_.end()) {
    throw Error("service profile bop line without its baseline line");
  }
  const OperatorId op = stats.op;
  return it->second.operators.try_emplace(op, std::move(stats)).second;
}

std::vector<RegressionFinding> DetectRegressions(const BaselineStore& baseline,
                                                 const WindowedProfile& profile,
                                                 const RegressionThresholds& thresholds,
                                                 const RegressionAlertFn& alert,
                                                 uint32_t shard_id) {
  std::vector<RegressionFinding> findings;
  for (const auto& [fingerprint, series] : profile.plans()) {
    (void)series;
    const PlanBaseline* base = baseline.Find(fingerprint);
    if (base == nullptr) {
      continue;
    }
    // Everything that arrived since the snapshot; pre-baseline windows never dilute the diff.
    const WindowRollup current = profile.RollUpSince(fingerprint, base->watermark + 1);
    if (current.samples < kRegressionMinSamples) {
      continue;
    }

    RegressionFinding finding;
    finding.shard_id = shard_id;
    const bool mix = DiffMix(*base, current, &finding);
    if (DiffRates(*base, current, thresholds, &finding) || mix) {
      if (alert) {
        alert(finding);
      }
      findings.push_back(std::move(finding));
    }
  }
  return findings;
}

GuardVerdict JudgeRegression(const PlanBaseline& baseline, const WindowedProfile& profile,
                             const RegressionThresholds& thresholds) {
  const WindowRollup current = profile.RollUpSince(baseline.fingerprint, baseline.watermark + 1);
  if (current.samples < kRegressionMinSamples) {
    return GuardVerdict::kInsufficientEvidence;
  }
  RegressionFinding finding;
  return DiffRates(baseline, current, thresholds, &finding) ? GuardVerdict::kRegressed
                                                            : GuardVerdict::kClean;
}

std::string RenderRegressionReport(const std::vector<RegressionFinding>& findings) {
  std::ostringstream out;
  if (findings.empty()) {
    out << "=== Regression report: no drift beyond thresholds ===\n";
    return out.str();
  }
  char line[256];
  out << "=== Regression report: " << findings.size() << " plan(s) drifted ===\n";
  for (const RegressionFinding& finding : findings) {
    std::snprintf(line, sizeof(line), "plan %016llx  %s  [%s%s%s]\n",
                  static_cast<unsigned long long>(finding.fingerprint), finding.name.c_str(),
                  finding.share_regressed ? " mix" : "",
                  finding.cycles_per_row_regressed ? " cycles/row" : "",
                  finding.remote_regressed ? " +remote" : "");
    out << line;
    std::snprintf(line, sizeof(line), "  cycles/row %.1f -> %.1f   remote/load %.3f -> %.3f\n",
                  finding.baseline_cycles_per_row, finding.current_cycles_per_row,
                  finding.baseline_remote_share, finding.current_remote_share);
    out << line;
    std::vector<CostDiffRow> rows;
    rows.reserve(finding.drifts.size());
    for (const OperatorDrift& drift : finding.drifts) {
      CostDiffRow row;
      row.label = drift.label;
      row.before_share = drift.baseline_share;
      row.after_share = drift.current_share;
      row.flagged = drift.flagged;
      rows.push_back(std::move(row));
    }
    out << RenderCostDiff(rows, "baseline", "current");
  }
  return out.str();
}

}  // namespace dfp
