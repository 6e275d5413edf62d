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

// Per-fingerprint diff shared by DetectRegressions and JudgeRegression: fills `finding` from
// `base` vs `current` and returns true when any check fired. `current` must already have
// enough samples (the callers gate on thresholds.min_samples).
bool DiffAgainstBaseline(const PlanBaseline& base, const WindowRollup& current,
                         const RegressionThresholds& thresholds, RegressionFinding* finding) {
  finding->fingerprint = base.fingerprint;
  finding->name = base.name;
  finding->baseline_cycles_per_row = base.cycles_per_row;
  finding->current_cycles_per_row = current.CyclesPerRow();
  finding->baseline_remote_share = base.remote_share;
  finding->current_remote_share = current.RemoteDramShare();

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
    drift.baseline_share = base.OperatorShare(op);
    drift.current_share = current.OperatorShare(op);
    const bool above_floor = drift.baseline_share >= thresholds.min_share ||
                             drift.current_share >= thresholds.min_share;
    if (!above_floor) {
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
                    thresholds.share_drift + thresholds.share_noise_z * stderr_drift;
    finding->share_regressed |= drift.flagged;
    finding->drifts.push_back(std::move(drift));
  }

  finding->cycles_per_row_regressed =
      base.cycles_per_row > 0 &&
      finding->current_cycles_per_row > base.cycles_per_row * thresholds.cycles_per_row_ratio;
  finding->remote_regressed = finding->current_remote_share - finding->baseline_remote_share >
                              thresholds.remote_share_drift;
  return finding->share_regressed || finding->cycles_per_row_regressed ||
         finding->remote_regressed;
}

}  // namespace

double PlanBaseline::OperatorShare(OperatorId op) const {
  if (samples == 0) {
    return 0;
  }
  auto it = operators.find(op);
  if (it == operators.end()) {
    return 0;
  }
  return static_cast<double>(it->second.samples) / static_cast<double>(samples);
}

std::optional<PlanBaseline> SnapshotPlanBaseline(const WindowedProfile& profile,
                                                 uint64_t fingerprint, uint64_t min_samples) {
  const ProfileWindow* latest = profile.LatestWindow(fingerprint);
  WindowRollup rollup = profile.RollUp(fingerprint);
  if (latest == nullptr || rollup.samples < min_samples) {
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

void BaselineStore::Snapshot(const WindowedProfile& profile, uint64_t min_samples) {
  baselines_.clear();
  for (const auto& [fingerprint, series] : profile.plans()) {
    (void)series;
    if (std::optional<PlanBaseline> baseline =
            SnapshotPlanBaseline(profile, fingerprint, min_samples)) {
      baselines_[fingerprint] = std::move(*baseline);
    }
  }
}

const PlanBaseline* BaselineStore::Find(uint64_t fingerprint) const {
  auto it = baselines_.find(fingerprint);
  return it == baselines_.end() ? nullptr : &it->second;
}

void BaselineStore::AddLoadedBaseline(PlanBaseline baseline) {
  baselines_[baseline.fingerprint] = std::move(baseline);
}

void BaselineStore::AddLoadedBaselineOperator(uint64_t fingerprint, WindowOperatorStats stats) {
  auto it = baselines_.find(fingerprint);
  if (it == baselines_.end()) {
    throw Error("service profile bop line without its baseline line");
  }
  it->second.operators[stats.op] = std::move(stats);
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
    if (current.samples < thresholds.min_samples) {
      continue;
    }

    RegressionFinding finding;
    finding.shard_id = shard_id;
    if (DiffAgainstBaseline(*base, current, thresholds, &finding)) {
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
  if (current.samples < thresholds.min_samples) {
    return GuardVerdict::kInsufficientEvidence;
  }
  RegressionFinding finding;
  return DiffAgainstBaseline(baseline, current, thresholds, &finding) ? GuardVerdict::kRegressed
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
