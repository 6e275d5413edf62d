#include "src/shard/merge.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "src/interp/interpreter.h"

namespace dfp {
namespace {

// Host instructions charged per merged cell (hash probe + accumulate amortized).
constexpr uint32_t kInstrsPerCell = 6;

using Row = std::vector<int64_t>;

}  // namespace

ShardMerger::ShardMerger(ShardCatalog& catalog, SamplingConfig sampling)
    : catalog_(catalog),
      cpu_(catalog.db(0).mem(), catalog.db(0).code_map(), pmu_),
      numa_(1) {
  pmu_.Configure(sampling);
  segment_ = catalog_.db(0).code_map().AddHostSegment(SegmentKind::kKernel, "shard.merge",
                                                      64ull * 1024);
  stage_base_.resize(catalog_.shards(), 0);
  stage_offset_.resize(catalog_.shards(), 0);
  for (uint32_t s = 1; s < catalog_.shards(); ++s) {
    const uint32_t region = catalog_.db(0).CreateScratchRegion(
        "shard.stage" + std::to_string(s), kMergeStageBytes);
    stage_base_[s] = catalog_.db(0).mem().region(region).base;
    numa_.AddCrossNode(stage_base_[s], kMergeStageBytes, static_cast<uint8_t>(s));
  }
  numa_.Seal();
  cpu_.ConfigureNuma(&numa_, 0);
}

int64_t ShardMerger::StageCell(uint32_t shard, int64_t payload) {
  const VAddr addr = stage_base_[shard] + stage_offset_[shard];
  stage_offset_[shard] = (stage_offset_[shard] + sizeof(int64_t)) % kMergeStageBytes;
  catalog_.db(0).mem().Write<int64_t>(addr, payload);
  cpu_.HostLoad(segment_, addr);
  return payload;
}

MergeOutcome ShardMerger::Merge(const MergeRecipe& recipe, const std::vector<Result>& partials) {
  const uint64_t tsc_start = cpu_.tsc();
  MergeOutcome outcome;

  // Combine partials group-by-group, first appearance across shards in shard order. Because
  // the fact-table slices are contiguous in generation order, this is the unsharded engine's
  // group emission order.
  std::unordered_map<Row, size_t, KeyHash> index;
  std::vector<Row> keys;
  std::vector<std::vector<AggState>> states;
  for (uint32_t s = 0; s < partials.size(); ++s) {
    for (const Row& row : partials[s].rows()) {
      Row key(row.begin(), row.begin() + static_cast<long>(recipe.group_keys));
      if (s != 0) {
        // Remote partial: every cell crosses the shard fabric through the staging ring.
        for (size_t c = 0; c < row.size(); ++c) {
          StageCell(s, row[c]);
        }
        outcome.staged_bytes += row.size() * sizeof(int64_t);
      }
      auto [it, inserted] = index.try_emplace(key, keys.size());
      if (inserted) {
        keys.push_back(key);
        states.emplace_back(recipe.aggs.size());
      }
      std::vector<AggState>& group = states[it->second];
      for (size_t a = 0; a < recipe.aggs.size(); ++a) {
        // A partial is the shard's own aggregate value; an AVG partial carries its count in
        // the next column.
        const MergeAggSpec& agg = recipe.aggs[a];
        const size_t col = static_cast<size_t>(agg.partial_col);
        Accumulate(agg.op, agg.in_type, row[col],
                   agg.op == AggOp::kAvg ? row[col + 1] : row[col], group[a]);
      }
      outcome.merged_cells += row.size();
    }
  }

  std::vector<Row> rows;
  rows.reserve(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = std::move(keys[g]);
    for (size_t a = 0; a < recipe.aggs.size(); ++a) {
      row.push_back(FinalizeAgg(recipe.aggs[a].op, recipe.aggs[a].in_type, states[g][a]));
    }
    outcome.merged_cells += row.size();
    rows.push_back(std::move(row));
  }

  // Lifted post-aggregation stages, run on the coordinator host by the oracle's row operators.
  const StringHeap& strings = catalog_.db(0).strings();
  const std::vector<OutputColumn>* input_schema = &recipe.merged_output;
  for (const PhysicalOpPtr& stage : recipe.stages) {
    if (stage->kind == OpKind::kMap) {
      outcome.merged_cells += rows.size() * stage->exprs.size();
    }
    ApplyRowOperator(*stage, *input_schema, strings, rows);
    input_schema = &stage->output;
  }

  cpu_.HostWork(segment_, kInstrsPerCell * outcome.merged_cells);
  outcome.merge_cycles = cpu_.tsc() - tsc_start;
  outcome.result = Result(recipe.final_output, std::move(rows));
  return outcome;
}

}  // namespace dfp
