// Hierarchical fleet-profile aggregation across shards.
//
// Every shard's QueryService already keeps a shard-local ServiceProfile (cumulative) and
// WindowedProfile (ring of recent windows). The aggregation tree rolls these up into one fleet
// view: each shard contributes a leaf, leaves merge pairwise up a balanced binary tree, and the
// root is the cross-shard profile the operator reads. The cost of the roll-up is bounded per
// level — each level touches every plan entry once — and modeled as
// levels * entries * kRollupCyclesPerEntry cycles, with levels = ceil(log2 leaves).
//
// Determinism is load-bearing: MergePair is commutative and associative (counters sum, names
// and bottleneck verdicts reduce by total orders, latency sketches vector-add), so aggregating
// the same shard leaves in ANY order — any tree shape, any shard permutation — produces a
// byte-identical rendered profile and JSON export. CI double-runs the sharded bench and diffs
// the exports; the shard tests shuffle the leaf order and compare bytes.
//
// Latency quantiles merge exactly because leaves export power-of-two histogram sketches
// (bucket = bit width of the latency) rather than precomputed per-shard quantiles: quantiles
// of a merged sketch are well-defined, quantiles of quantiles are not. The reported value is
// the nearest-rank bucket's upper bound; the maximum is carried exactly.
#ifndef DFP_SRC_SHARD_AGGTREE_H_
#define DFP_SRC_SHARD_AGGTREE_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/service/service_profile.h"

namespace dfp {

// Power-of-two latency histogram: bucket index = std::bit_width(latency), saturated at 63.
// Mergeable by vector addition, unlike the quantiles it answers.
struct LatencySketch {
  std::array<uint64_t, 64> buckets{};

  void Add(uint64_t latency);
  void Merge(const LatencySketch& other);
  uint64_t total() const;
  // Nearest-rank percentile (pct in [1,100]): the upper bound of the bucket holding the
  // rank-th smallest latency, 0 when empty.
  uint64_t Quantile(uint32_t pct) const;
};

// One plan fingerprint's cross-shard rollup: the shards' profiles merged field by field
// (counters sum; `name` is the lexicographic-min non-empty name and (top_share_pct,
// bottleneck) the lexicographic max, so every pick is order-independent), plus the merged
// latency sketch.
struct FleetPlanRollup : FleetPlanProfile {
  LatencySketch latency;
  uint64_t latency_max = 0;
};

// One node of the aggregation tree: a shard leaf, an interior pairwise merge, or the root.
struct FleetAggregate {
  std::map<uint64_t, FleetPlanRollup> plans;  // Keyed by fingerprint (deterministic order).
  uint32_t leaves = 0;
  // Filled by AggregateShards on the root only: tree depth and the modeled roll-up cost
  // (levels * plan entries * kRollupCyclesPerEntry) — a pure function of the leaf SET, not the
  // order.
  uint32_t levels = 0;
  uint64_t rollup_cycles = 0;
};

// Modeled cost of merging one plan entry at one tree level.
inline constexpr uint64_t kRollupCyclesPerEntry = 400;

// Builds one shard's leaf from its service's cumulative profile and live window latencies.
FleetAggregate BuildShardLeaf(const ServiceProfile& profile, const WindowedProfile& windows);

// Pairwise merge; commutative and associative.
FleetAggregate MergePair(FleetAggregate a, const FleetAggregate& b);

// Rolls the shard leaves up a balanced binary tree and stamps the root's levels/rollup_cycles.
FleetAggregate AggregateShards(std::vector<FleetAggregate> leaves);

// Deterministic text report and JSON export (fixed key order; integer values plus names).
std::string RenderFleetAggregate(const FleetAggregate& fleet, size_t top_k = 10);
void WriteFleetAggregateJson(const FleetAggregate& fleet, std::ostream& out);

}  // namespace dfp

#endif  // DFP_SRC_SHARD_AGGTREE_H_
