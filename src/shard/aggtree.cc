#include "src/shard/aggtree.h"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/util/text_format.h"

namespace dfp {
namespace {

// Lexicographic-min non-empty string: the order-independent name pick.
void ReduceName(std::string& into, const std::string& other) {
  if (other.empty()) {
    return;
  }
  if (into.empty() || other < into) {
    into = other;
  }
}

void MergeRollup(FleetPlanRollup& into, const FleetPlanRollup& other) {
  ReduceName(into.name, other.name);
  into.executions += other.executions;
  into.cache_hits += other.cache_hits;
  into.cache_misses += other.cache_misses;
  into.compile_cycles += other.compile_cycles;
  into.execute_cycles += other.execute_cycles;
  into.samples += other.samples;
  into.critical_cycles += other.critical_cycles;
  if (std::make_pair(other.top_share_pct, other.bottleneck) >
      std::make_pair(into.top_share_pct, into.bottleneck)) {
    into.top_share_pct = other.top_share_pct;
    into.bottleneck = other.bottleneck;
  }
  for (const auto& [op, cost] : other.operators) {
    FleetOperatorCost& mine = into.operators[op];
    mine.op = op;
    ReduceName(mine.label, cost.label);
    mine.samples += cost.samples;
  }
  into.latency.Merge(other.latency);
  into.latency_max = std::max(into.latency_max, other.latency_max);
}

}  // namespace

void LatencySketch::Add(uint64_t latency) {
  const int bucket = std::min(static_cast<int>(std::bit_width(latency)), 63);
  ++buckets[static_cast<size_t>(bucket)];
}

void LatencySketch::Merge(const LatencySketch& other) {
  for (size_t b = 0; b < buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
}

uint64_t LatencySketch::total() const {
  uint64_t sum = 0;
  for (uint64_t count : buckets) {
    sum += count;
  }
  return sum;
}

uint64_t LatencySketch::Quantile(uint32_t pct) const {
  const uint64_t count = total();
  if (count == 0) {
    return 0;
  }
  const uint64_t rank = (count * pct + 99) / 100;  // Nearest rank, 1-based.
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return (1ull << b) - 1;  // Bucket upper bound.
    }
  }
  return (1ull << 63) - 1;
}

FleetAggregate BuildShardLeaf(const ServiceProfile& profile, const WindowedProfile& windows) {
  FleetAggregate leaf;
  leaf.leaves = 1;
  for (const auto& [fingerprint, plan] : profile.plans()) {
    static_cast<FleetPlanProfile&>(leaf.plans[fingerprint]) = plan;
  }
  // Live window latencies feed the mergeable sketch (quantiles of quantiles would not merge).
  for (const auto& [fingerprint, series] : windows.plans()) {
    FleetPlanRollup& rollup = leaf.plans[fingerprint];
    rollup.fingerprint = fingerprint;
    ReduceName(rollup.name, series.name);
    for (const ProfileWindow& window : series.windows) {
      for (uint64_t latency : window.latencies) {
        rollup.latency.Add(latency);
      }
      rollup.latency_max = std::max(rollup.latency_max, window.latency_max);
    }
  }
  return leaf;
}

FleetAggregate MergePair(FleetAggregate a, const FleetAggregate& b) {
  for (const auto& [fingerprint, rollup] : b.plans) {
    auto [it, inserted] = a.plans.try_emplace(fingerprint, rollup);
    if (!inserted) {
      MergeRollup(it->second, rollup);
    }
  }
  a.leaves += b.leaves;
  return a;
}

FleetAggregate AggregateShards(std::vector<FleetAggregate> leaves) {
  if (leaves.empty()) {
    return FleetAggregate{};
  }
  uint32_t levels = 0;
  while (leaves.size() > 1) {
    // One tree level: merge adjacent pairs (an odd tail passes through unmerged).
    std::vector<FleetAggregate> next;
    next.reserve((leaves.size() + 1) / 2);
    for (size_t i = 0; i + 1 < leaves.size(); i += 2) {
      next.push_back(MergePair(std::move(leaves[i]), leaves[i + 1]));
    }
    if (leaves.size() % 2 != 0) {
      next.push_back(std::move(leaves.back()));
    }
    leaves = std::move(next);
    ++levels;
  }
  FleetAggregate root = std::move(leaves.front());
  root.levels = levels;
  // Bounded per-level cost: every level touches each plan entry of the final union once. A
  // pure function of the leaf set (levels from the count, entries from the union), so any
  // aggregation order reports the same cost.
  root.rollup_cycles = static_cast<uint64_t>(levels) * root.plans.size() * kRollupCyclesPerEntry;
  return root;
}

std::string RenderFleetAggregate(const FleetAggregate& fleet, size_t top_k) {
  std::ostringstream out;
  out << "fleet aggregate: " << fleet.leaves << " shard leaves, " << fleet.levels
      << " levels, " << fleet.plans.size() << " plans, rollup " << fleet.rollup_cycles
      << " cycles\n";
  for (const auto& [fingerprint, plan] : fleet.plans) {
    out << "  " << Hex16(fingerprint) << " " << (plan.name.empty() ? "?" : plan.name) << ": "
        << plan.executions << " execs (" << plan.cache_hits << " hits), compile "
        << plan.compile_cycles << ", execute " << plan.execute_cycles << ", samples "
        << plan.samples;
    if (plan.latency.total() > 0) {
      out << ", latency p50<=" << plan.latency.Quantile(50) << " p95<="
          << plan.latency.Quantile(95) << " max=" << plan.latency_max;
    }
    if (!plan.bottleneck.empty()) {
      out << ", critical " << plan.critical_cycles << " (top " << plan.top_share_pct << "% "
          << plan.bottleneck << ")";
    }
    out << "\n";
    size_t shown = 0;
    for (const auto& [op, cost] : plan.operators) {
      if (shown++ >= top_k) {
        break;
      }
      out << "    op " << op << " " << cost.label << ": " << cost.samples << " samples\n";
    }
  }
  return out.str();
}

void WriteFleetAggregateJson(const FleetAggregate& fleet, std::ostream& out) {
  out << "{\n";
  out << "  \"leaves\": " << fleet.leaves << ",\n";
  out << "  \"levels\": " << fleet.levels << ",\n";
  out << "  \"rollup_cycles\": " << fleet.rollup_cycles << ",\n";
  out << "  \"plans\": [\n";
  bool first_plan = true;
  for (const auto& [fingerprint, plan] : fleet.plans) {
    if (!first_plan) {
      out << ",\n";
    }
    first_plan = false;
    out << "    {\"fingerprint\": \"" << Hex16(fingerprint) << "\", \"name\": \"" << plan.name
        << "\", \"executions\": " << plan.executions << ", \"cache_hits\": " << plan.cache_hits
        << ", \"compile_cycles\": " << plan.compile_cycles
        << ", \"execute_cycles\": " << plan.execute_cycles << ", \"samples\": " << plan.samples
        << ", \"critical_cycles\": " << plan.critical_cycles
        << ", \"latency_p50\": " << plan.latency.Quantile(50)
        << ", \"latency_p95\": " << plan.latency.Quantile(95)
        << ", \"latency_max\": " << plan.latency_max << ", \"operators\": [";
    bool first_op = true;
    for (const auto& [op, cost] : plan.operators) {
      if (!first_op) {
        out << ", ";
      }
      first_op = false;
      out << "{\"op\": " << op << ", \"label\": \"" << cost.label
          << "\", \"samples\": " << cost.samples << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace dfp
