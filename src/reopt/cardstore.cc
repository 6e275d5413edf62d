#include "src/reopt/cardstore.h"

#include <algorithm>

#include "src/util/text_format.h"

namespace dfp {

CardinalityMap ObservedCardinalities(const CompiledQuery& query) {
  CardinalityMap out;
  if (query.tuple_counts.empty()) {
    return out;
  }
  for (const PipelineArtifact& artifact : query.pipelines) {
    for (const PipelineStep& step : artifact.pipeline.steps) {
      if (step.task == kNoTask || step.op == nullptr) {
        continue;
      }
      auto count = query.tuple_counts.find(step.task);
      if (count == query.tuple_counts.end()) {
        continue;
      }
      using Role = PipelineStep::Role;
      switch (step.role) {
        case Role::kScanSource:
        case Role::kGroupScanSource:
        case Role::kSortScanSource:
        case Role::kGroupJoinScanSource:
        case Role::kFilter:
        case Role::kMap:
        case Role::kProbe:
        case Role::kLimit:
        case Role::kOutput:
          out[step.op->id] = count->second;
          break;
        case Role::kBuild:
        case Role::kGroupJoinBuild:
        case Role::kGroupByAggregate:
        case Role::kSortMaterialize:
          // These tasks consume child rows one by one: the count measures the child's output
          // (for builds, the build-side input — the blowup the semi-join gate watches).
          out[step.op->child(0)->id] = count->second;
          break;
        case Role::kGroupJoinProbe:
          out[step.op->child(1)->id] = count->second;
          break;
      }
    }
  }
  return out;
}

void CardStore::Observe(uint64_t fingerprint, const std::string& name,
                        const CardinalityMap& observed, const CardinalityMap& estimated) {
  ++generation_;
  PlanCards& plan = plans_[fingerprint];
  if (plan.name.empty()) {
    plan.name = name;
  }
  ++plan.executions;
  plan.generation = generation_;
  for (const auto& [op, rows] : observed) {
    CardEntry& entry = plan.operators[op];
    entry.observed_rows =
        entry.executions == 0 ? rows : (3 * entry.observed_rows + rows) / 4;
    auto estimate = estimated.find(op);
    if (estimate != estimated.end()) {
      entry.estimated_rows = estimate->second;
    }
    ++entry.executions;
    entry.generation = generation_;
  }
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (it->second.generation + kCardMaxAge < generation_) {
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
}

const PlanCards* CardStore::Find(uint64_t fingerprint) const {
  auto it = plans_.find(fingerprint);
  return it == plans_.end() ? nullptr : &it->second;
}

uint64_t CardStore::DivergencePct(uint64_t observed, uint64_t estimated) {
  const uint64_t high = std::max<uint64_t>(std::max(observed, estimated), 1);
  const uint64_t low = std::max<uint64_t>(std::min(observed, estimated), 1);
  return 100 * high / low;
}

uint64_t CardStore::MaxDivergencePct(uint64_t fingerprint) const {
  const PlanCards* plan = Find(fingerprint);
  if (plan == nullptr) {
    return 0;
  }
  uint64_t worst = 0;
  for (const auto& [op, entry] : plan->operators) {
    if (entry.executions == 0) {
      continue;
    }
    worst = std::max(worst, DivergencePct(entry.observed_rows, entry.estimated_rows));
  }
  return worst;
}

std::string RenderCardStore(const CardStore& store) {
  std::string out = "=== cardinality store (generation " +
                    std::to_string(store.generation()) + ") ===\n";
  if (store.plans().empty()) {
    out += "(no observations)\n";
    return out;
  }
  for (const auto& [fingerprint, plan] : store.plans()) {
    out += "plan " + Hex16(fingerprint) + " " + plan.name +
           " execs=" + std::to_string(plan.executions) + "\n";
    for (const auto& [op, entry] : plan.operators) {
      out += "  op " + std::to_string(op) + " observed=" +
             std::to_string(entry.observed_rows) + " estimated=" +
             std::to_string(entry.estimated_rows) + " div=" +
             std::to_string(CardStore::DivergencePct(entry.observed_rows,
                                                     entry.estimated_rows)) +
             "% execs=" + std::to_string(entry.executions) + "\n";
    }
  }
  return out;
}

}  // namespace dfp
