#include "src/reopt/controller.h"

#include "src/tiering/literals.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {

RegressionThresholds ReoptGuardThresholds() {
  RegressionThresholds thresholds;
  // Shares live in [0,1]: a drift threshold of 2.0 can never fire. The candidate's operator
  // ids do not correspond to the baseline's, so the mix comparison is meaningless here.
  thresholds.share_drift = 2.0;
  return thresholds;
}

const char* ReoptStateName(ReoptState state) {
  switch (state) {
    case ReoptState::kDecided:
      return "decided";
    case ReoptState::kApplied:
      return "applied";
    case ReoptState::kKept:
      return "kept";
    case ReoptState::kReverted:
      return "reverted";
  }
  return "?";
}

bool ReoptStateFromName(const std::string& name, ReoptState* out) {
  for (ReoptState state : {ReoptState::kDecided, ReoptState::kApplied, ReoptState::kKept,
                           ReoptState::kReverted}) {
    if (name == ReoptStateName(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

ReoptAction& ReoptLog::Add(ReoptAction action) {
  actions_.push_back(std::move(action));
  return actions_.back();
}

ReoptAction* ReoptLog::Find(uint64_t fingerprint) {
  for (auto it = actions_.rbegin(); it != actions_.rend(); ++it) {
    if (it->fingerprint == fingerprint) {
      return &*it;
    }
  }
  return nullptr;
}

const ReoptAction* ReoptLog::Find(uint64_t fingerprint) const {
  return const_cast<ReoptLog*>(this)->Find(fingerprint);
}

uint64_t ReoptLog::applied() const {
  uint64_t count = 0;
  for (const ReoptAction& action : actions_) {
    count += action.state == ReoptState::kApplied || action.state == ReoptState::kKept;
  }
  return count;
}

uint64_t ReoptLog::kept() const {
  uint64_t count = 0;
  for (const ReoptAction& action : actions_) {
    count += action.state == ReoptState::kKept;
  }
  return count;
}

uint64_t ReoptLog::reverted() const {
  uint64_t count = 0;
  for (const ReoptAction& action : actions_) {
    count += action.state == ReoptState::kReverted;
  }
  return count;
}

std::string RenderReoptTimeline(const ReoptLog& log) {
  std::string out = "=== reopt timeline ===\n";
  if (log.actions().empty()) {
    out += "(no re-optimizations)\n";
    return out;
  }
  for (const ReoptAction& action : log.actions()) {
    out += "plan " + Hex16(action.fingerprint) + " " + action.plan_name + " [" +
           ReoptStateName(action.state) + "] divergence=" +
           std::to_string(action.divergence_pct) + "%";
    if (!action.description.empty()) {
      out += " " + action.description;
    }
    out += " decided@" + std::to_string(action.decided_tsc);
    if (action.applied_tsc != 0) {
      out += " applied@" + std::to_string(action.applied_tsc);
    }
    if (action.resolved_tsc != 0) {
      out += " resolved@" + std::to_string(action.resolved_tsc);
    }
    out += "\n";
  }
  return out;
}

std::vector<uint32_t> ReoptLiteralPermutation(const PhysicalOp& original,
                                              const CardinalityMap& observed,
                                              const ReoptRewriteOptions& options) {
  PhysicalOpPtr sentinel_plan = ClonePlan(original);
  std::vector<LiteralBinding> sentinels = ExtractLiterals(*sentinel_plan).bindings;
  // Unique per-slot payloads. The base is large enough not to collide with plausible plan
  // constants, and patterns get a control byte no SQL pattern contains.
  constexpr int64_t kSentinelBase = 1'000'000'007;
  for (size_t j = 0; j < sentinels.size(); ++j) {
    if (sentinels[j].kind == LiteralBinding::Kind::kPattern) {
      sentinels[j].pattern = std::string("\x01reopt-sentinel-") + std::to_string(j);
    } else {
      sentinels[j].value = kSentinelBase + static_cast<int64_t>(j);
    }
  }
  BindLiterals(*sentinel_plan, sentinels);
  ReoptRewrite rewrite = ReoptimizePlan(*sentinel_plan, observed, options);
  DFP_CHECK(rewrite.changed);
  const PlanLiterals candidate = ExtractLiterals(*rewrite.plan);
  std::vector<uint32_t> permutation;
  permutation.reserve(candidate.bindings.size());
  for (const LiteralBinding& binding : candidate.bindings) {
    size_t j = 0;
    for (; j < sentinels.size(); ++j) {
      if (binding.kind != sentinels[j].kind) {
        continue;
      }
      const bool match = binding.kind == LiteralBinding::Kind::kPattern
                             ? binding.pattern == sentinels[j].pattern
                             : binding.value == sentinels[j].value;
      if (match) {
        break;
      }
    }
    DFP_CHECK(j < sentinels.size());
    permutation.push_back(static_cast<uint32_t>(j));
  }
  if (permutation.size() == sentinels.size()) {
    bool identity = true;
    for (size_t j = 0; j < permutation.size(); ++j) {
      identity &= permutation[j] == static_cast<uint32_t>(j);
    }
    if (identity) {
      return {};
    }
  }
  return permutation;
}

}  // namespace dfp
