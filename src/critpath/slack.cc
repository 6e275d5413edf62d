#include "src/critpath/slack.h"

#include <algorithm>
#include <utility>

namespace dfp {
namespace {

uint32_t BucketOf(uint64_t begin, uint64_t rows) {
  if (rows == 0) {
    return 0;
  }
  uint64_t bucket = begin * kSlackBuckets / rows;
  return static_cast<uint32_t>(std::min<uint64_t>(bucket, kSlackBuckets - 1));
}

uint64_t Ewma(uint64_t old_value, uint64_t observed) {
  return (3 * old_value + observed) / 4;
}

}  // namespace

uint64_t StepSlack::SlackAt(uint64_t begin) const {
  return bucket_slack[BucketOf(begin, rows)];
}

const StepSlack* PlanSlack::FindStep(uint32_t step, uint32_t pipeline) const {
  for (const StepSlack& s : steps) {
    if (s.step == step && s.pipeline == pipeline) {
      return &s;
    }
    if (s.step > step) {
      break;
    }
  }
  return nullptr;
}

void SlackStore::Observe(uint64_t fingerprint, const std::string& name, const TaskDag& dag) {
  ++generation_;
  PlanSlack& plan = plans_[fingerprint];
  plan.fingerprint = fingerprint;
  plan.name = name;
  plan.generation = generation_;
  ++plan.executions;
  plan.critical_path_cycles = plan.executions == 1
                                  ? dag.critical_work_cycles
                                  : Ewma(plan.critical_path_cycles, dag.critical_work_cycles);

  // This run's per-(step, pipeline) observation: the row extent and the minimum slack any of
  // the bucket's tasks showed. Two passes because the bucket boundaries need the final extent.
  struct RunStep {
    uint64_t rows = 0;
    uint64_t min_slack[kSlackBuckets];
    RunStep() { std::fill(min_slack, min_slack + kSlackBuckets, UINT64_MAX); }
  };
  std::map<std::pair<uint32_t, uint32_t>, RunStep> run;
  for (const TaskNode& node : dag.nodes) {
    if (node.task.pipeline == kNoPipeline) {
      continue;
    }
    RunStep& rs = run[{node.task.step, node.task.pipeline}];
    rs.rows = std::max(rs.rows, node.task.morsel_end);
  }
  for (const TaskNode& node : dag.nodes) {
    if (node.task.pipeline == kNoPipeline) {
      continue;
    }
    RunStep& rs = run[{node.task.step, node.task.pipeline}];
    uint64_t& bucket = rs.min_slack[BucketOf(node.task.morsel_begin, rs.rows)];
    bucket = std::min(bucket, node.slack);
  }

  // Fold into the stored profile. steps stays sorted by (step, pipeline) because std::map
  // iterates the run observations in exactly that order and merging preserves it.
  std::vector<StepSlack> merged;
  merged.reserve(std::max(plan.steps.size(), run.size()));
  auto stored = plan.steps.begin();
  for (auto& [key, rs] : run) {
    while (stored != plan.steps.end() &&
           std::make_pair(stored->step, stored->pipeline) < key) {
      merged.push_back(*stored++);  // Step not seen this run (e.g. pruned pipeline): keep.
    }
    StepSlack out;
    if (stored != plan.steps.end() && std::make_pair(stored->step, stored->pipeline) == key) {
      out = *stored++;
    } else {
      out.step = key.first;
      out.pipeline = key.second;
    }
    out.rows = std::max(out.rows, rs.rows);
    for (uint32_t b = 0; b < kSlackBuckets; ++b) {
      if (rs.min_slack[b] == UINT64_MAX) {
        continue;  // No task landed in this bucket this run: keep the prior estimate.
      }
      out.bucket_slack[b] = out.bucket_slack[b] == UINT64_MAX
                                ? rs.min_slack[b]
                                : Ewma(out.bucket_slack[b], rs.min_slack[b]);
    }
    merged.push_back(out);
  }
  while (stored != plan.steps.end()) {
    merged.push_back(*stored++);
  }
  plan.steps = std::move(merged);

  // Age out fingerprints the service stopped seeing: their placement hints would be applied to
  // plans whose schedules may have drifted arbitrarily far from the folded observations.
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (generation_ - it->second.generation > kSlackMaxAge) {
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
}

const PlanSlack* SlackStore::Find(uint64_t fingerprint) const {
  auto it = plans_.find(fingerprint);
  return it == plans_.end() ? nullptr : &it->second;
}

uint64_t SlackStore::ExpectedCriticalPathCycles(uint64_t fingerprint) const {
  const PlanSlack* plan = Find(fingerprint);
  return plan == nullptr ? 0 : plan->critical_path_cycles;
}

PlanSlack& SlackStore::LoadPlan(uint64_t fingerprint) {
  PlanSlack& plan = plans_[fingerprint];
  plan.fingerprint = fingerprint;
  return plan;
}

}  // namespace dfp
