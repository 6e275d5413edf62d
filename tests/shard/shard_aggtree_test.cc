// Hierarchical profile aggregation tree: the roll-up must be a pure function of the leaf SET —
// pairwise merges commute and associate, shuffled shard orders render byte-identically, and the
// modeled per-level cost depends only on (levels, union size), never on aggregation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/shard/aggtree.h"

namespace dfp {
namespace {

FleetAggregate MakeLeaf(uint64_t fingerprint, const std::string& name, uint64_t executions,
                        uint64_t samples, uint64_t latency) {
  FleetAggregate leaf;
  leaf.leaves = 1;
  FleetPlanRollup& plan = leaf.plans[fingerprint];
  plan.fingerprint = fingerprint;
  plan.name = name;
  plan.executions = executions;
  plan.cache_hits = executions / 2;
  plan.compile_cycles = 1000 * executions;
  plan.execute_cycles = 7777 * executions;
  plan.samples = samples;
  FleetOperatorCost& scan = plan.operators[3];
  scan.op = 3;
  scan.label = "TableScan";
  scan.samples = samples;
  plan.latency.Add(latency);
  plan.latency_max = latency;
  return leaf;
}

std::vector<FleetAggregate> MakeLeaves() {
  // Five leaves with overlapping plan sets: fingerprint 0xA everywhere, 0xB on two leaves,
  // 0xC on one — the union the root must report regardless of merge order.
  std::vector<FleetAggregate> leaves;
  leaves.push_back(MakeLeaf(0xA, "q6", 4, 100, 5000));
  leaves.push_back(MakeLeaf(0xA, "q6", 2, 50, 9000));
  FleetAggregate third = MakeLeaf(0xA, "", 1, 10, 400);  // Name only known elsewhere.
  FleetAggregate b = MakeLeaf(0xB, "q1", 3, 70, 12000);
  third = MergePair(std::move(third), b);
  third.leaves = 1;
  leaves.push_back(std::move(third));
  leaves.push_back(MakeLeaf(0xB, "q1", 1, 30, 15000));
  leaves.push_back(MakeLeaf(0xC, "q12", 5, 200, 800));
  return leaves;
}

std::string JsonOf(const FleetAggregate& fleet) {
  std::ostringstream out;
  WriteFleetAggregateJson(fleet, out);
  return out.str();
}

TEST(LatencySketch, QuantileAndMerge) {
  LatencySketch sketch;
  for (uint64_t latency : {100, 100, 100, 800, 100000}) {
    sketch.Add(latency);
  }
  EXPECT_EQ(sketch.total(), 5u);
  // p50 lands in the bucket holding 100 (bit_width 7 -> upper bound 127).
  EXPECT_EQ(sketch.Quantile(50), 127u);
  EXPECT_GE(sketch.Quantile(100), 100000u);

  LatencySketch other;
  other.Add(100);
  other.Merge(sketch);
  EXPECT_EQ(other.total(), 6u);
  EXPECT_EQ(other.Quantile(50), 127u);
}

TEST(AggTree, MergePairCommutesAndAssociates) {
  std::vector<FleetAggregate> leaves = MakeLeaves();
  const FleetAggregate& a = leaves[0];
  const FleetAggregate& b = leaves[2];
  const FleetAggregate& c = leaves[4];

  const FleetAggregate ab_c = MergePair(MergePair(a, b), c);
  const FleetAggregate a_bc = MergePair(a, MergePair(b, c));
  const FleetAggregate c_ba = MergePair(MergePair(c, b), a);
  EXPECT_EQ(RenderFleetAggregate(ab_c), RenderFleetAggregate(a_bc));
  EXPECT_EQ(RenderFleetAggregate(ab_c), RenderFleetAggregate(c_ba));
  EXPECT_EQ(JsonOf(ab_c), JsonOf(a_bc));
  EXPECT_EQ(ab_c.leaves, 3u);
}

TEST(AggTree, ShuffledShardOrderRendersByteIdentical) {
  const FleetAggregate reference = AggregateShards(MakeLeaves());
  const std::string reference_render = RenderFleetAggregate(reference);
  const std::string reference_json = JsonOf(reference);

  std::vector<size_t> order = {0, 1, 2, 3, 4};
  // Every rotation plus a few swapped orders: all must produce the same root.
  for (int shuffle = 0; shuffle < 8; ++shuffle) {
    std::rotate(order.begin(), order.begin() + 1, order.end());
    if (shuffle >= 5) {
      std::swap(order[0], order[3]);
    }
    std::vector<FleetAggregate> base = MakeLeaves();
    std::vector<FleetAggregate> shuffled;
    for (size_t index : order) {
      shuffled.push_back(base[index]);
    }
    const FleetAggregate root = AggregateShards(std::move(shuffled));
    EXPECT_EQ(RenderFleetAggregate(root), reference_render);
    EXPECT_EQ(JsonOf(root), reference_json);
  }
}

TEST(AggTree, LevelsAndRollupCostArePureFunctionsOfTheLeafSet) {
  std::vector<FleetAggregate> one;
  one.push_back(MakeLeaf(0xA, "q6", 1, 1, 1));
  const FleetAggregate single = AggregateShards(std::move(one));
  EXPECT_EQ(single.levels, 0u);
  EXPECT_EQ(single.rollup_cycles, 0u);
  EXPECT_EQ(single.leaves, 1u);

  // Five leaves: 5 -> 3 -> 2 -> 1, three pairwise-merge rounds; cost = levels x union x rate.
  const FleetAggregate root = AggregateShards(MakeLeaves());
  EXPECT_EQ(root.leaves, 5u);
  EXPECT_EQ(root.levels, 3u);
  EXPECT_EQ(root.plans.size(), 3u);
  EXPECT_EQ(root.rollup_cycles, 3u * 3u * kRollupCyclesPerEntry);
}

TEST(AggTree, MergeTakesLexicographicMinNameAndMaxBottleneck) {
  FleetAggregate anon = MakeLeaf(0xA, "", 1, 1, 1);
  FleetAggregate named = MakeLeaf(0xA, "q6", 1, 1, 1);
  named.plans[0xA].top_share_pct = 40;
  named.plans[0xA].bottleneck = "dram";
  FleetAggregate louder = MakeLeaf(0xA, "zz-alias", 1, 1, 1);
  louder.plans[0xA].top_share_pct = 70;
  louder.plans[0xA].bottleneck = "compute";

  const FleetAggregate merged = MergePair(MergePair(anon, named), louder);
  const FleetPlanRollup& plan = merged.plans.at(0xA);
  EXPECT_EQ(plan.name, "q6");  // Lexicographic-min non-empty.
  EXPECT_EQ(plan.top_share_pct, 70u);
  EXPECT_EQ(plan.bottleneck, "compute");
  EXPECT_EQ(plan.executions, 3u);
}

}  // namespace
}  // namespace dfp
