#include "src/reopt/controller.h"

#include "src/tiering/literals.h"
#include "src/util/check.h"

namespace dfp {

RegressionThresholds ReoptGuardThresholds() {
  RegressionThresholds thresholds;
  // Shares live in [0,1]: a drift threshold of 2.0 can never fire. The candidate's operator
  // ids do not correspond to the baseline's, so the mix comparison is meaningless here.
  thresholds.share_drift = 2.0;
  return thresholds;
}

std::string ReoptPayload::Detail() const {
  std::string detail = "divergence=" + std::to_string(divergence_pct) + "%";
  if (!description.empty()) {
    detail += " " + description;
  }
  return detail;
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
