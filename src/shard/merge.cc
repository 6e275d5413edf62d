#include "src/shard/merge.h"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/plan/eval.h"
#include "src/util/check.h"

namespace dfp {
namespace {

// Host instructions charged per merged cell (hash probe + accumulate amortized).
constexpr uint32_t kInstrsPerCell = 6;

using Row = std::vector<int64_t>;

struct KeyHash {
  size_t operator()(const Row& key) const {
    size_t hash = 14695981039346656037ull;
    for (int64_t value : key) {
      hash = (hash ^ static_cast<size_t>(value)) * 1099511628211ull;
    }
    return hash;
  }
};

// Merge-side aggregate accumulator — the same state machine as the interpreter's AggState,
// fed partial values instead of input rows.
struct PartialAcc {
  int64_t sum_int = 0;
  double sum_double = 0;
  int64_t count = 0;
  int64_t extreme_int = 0;
  double extreme_double = 0;
  bool seen = false;
};

void CombinePartial(const MergeAggSpec& spec, PartialAcc& acc, const Row& row) {
  const int64_t value = row[static_cast<size_t>(spec.partial_col)];
  switch (spec.op) {
    case AggOp::kSum:
    case AggOp::kAvg:
      if (spec.in_type == ColumnType::kDouble) {
        acc.sum_double += std::bit_cast<double>(value);
      } else {
        acc.sum_int += value;
      }
      if (spec.op == AggOp::kAvg) {
        acc.count += row[static_cast<size_t>(spec.partial_col) + 1];
      }
      break;
    case AggOp::kCount:
    case AggOp::kCountStar:
      acc.count += value;
      break;
    case AggOp::kMin:
    case AggOp::kMax:
      if (spec.in_type == ColumnType::kDouble) {
        double extreme = std::bit_cast<double>(value);
        if (!acc.seen || (spec.op == AggOp::kMin ? extreme < acc.extreme_double
                                                 : extreme > acc.extreme_double)) {
          acc.extreme_double = extreme;
        }
      } else {
        if (!acc.seen ||
            (spec.op == AggOp::kMin ? value < acc.extreme_int : value > acc.extreme_int)) {
          acc.extreme_int = value;
        }
      }
      acc.seen = true;
      break;
  }
}

// Mirrors the interpreter's FinalizeAgg exactly (bit-for-bit for the int/decimal aggregates).
int64_t FinalizePartial(const MergeAggSpec& spec, const PartialAcc& acc) {
  switch (spec.op) {
    case AggOp::kSum:
      return spec.in_type == ColumnType::kDouble ? std::bit_cast<int64_t>(acc.sum_double)
                                                 : acc.sum_int;
    case AggOp::kCount:
    case AggOp::kCountStar:
      return acc.count;
    case AggOp::kMin:
    case AggOp::kMax:
      return spec.in_type == ColumnType::kDouble ? std::bit_cast<int64_t>(acc.extreme_double)
                                                 : acc.extreme_int;
    case AggOp::kAvg: {
      double sum;
      if (spec.in_type == ColumnType::kDouble) {
        sum = acc.sum_double;
      } else if (spec.in_type == ColumnType::kDecimal) {
        sum = static_cast<double>(acc.sum_int) / 100.0;
      } else {
        sum = static_cast<double>(acc.sum_int);
      }
      return std::bit_cast<int64_t>(sum / static_cast<double>(acc.count));
    }
  }
  DFP_UNREACHABLE();
}

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
  std::vector<std::vector<PartialAcc>> accs;
  for (uint32_t s = 0; s < partials.size(); ++s) {
    for (const Row& row : partials[s].rows()) {
      Row key(row.begin(), row.begin() + static_cast<long>(recipe.group_keys));
      if (s != 0) {
        // Remote partial: every cell crosses the shard fabric through the staging ring.
        for (size_t c = 0; c < row.size(); ++c) {
          StageCell(s, row[c]);
        }
        outcome.staged_cells += row.size();
        outcome.staged_bytes += row.size() * sizeof(int64_t);
      }
      auto [it, inserted] = index.try_emplace(key, keys.size());
      if (inserted) {
        keys.push_back(key);
        accs.emplace_back(recipe.aggs.size());
      }
      std::vector<PartialAcc>& group = accs[it->second];
      for (size_t a = 0; a < recipe.aggs.size(); ++a) {
        CombinePartial(recipe.aggs[a], group[a], row);
      }
      outcome.merged_cells += row.size();
    }
  }

  std::vector<Row> rows;
  rows.reserve(keys.size());
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = std::move(keys[g]);
    for (size_t a = 0; a < recipe.aggs.size(); ++a) {
      row.push_back(FinalizePartial(recipe.aggs[a], accs[g][a]));
    }
    outcome.merged_cells += row.size();
    rows.push_back(std::move(row));
  }

  // Lifted post-aggregation stages, interpreter-identical semantics on the coordinator host.
  const StringHeap& strings = catalog_.db(0).strings();
  const std::vector<OutputColumn>* input_schema = &recipe.merged_output;
  for (const PhysicalOpPtr& stage : recipe.stages) {
    switch (stage->kind) {
      case OpKind::kMap: {
        EvalContext ctx;
        ctx.strings = &strings;
        std::vector<Row> output;
        output.reserve(rows.size());
        for (Row& row : rows) {
          ctx.tuple = row;
          if (stage->projecting) {
            Row projected;
            projected.reserve(stage->exprs.size());
            for (const ExprPtr& expr : stage->exprs) {
              projected.push_back(EvalScalar(*expr, ctx));
            }
            output.push_back(std::move(projected));
          } else {
            Row extended = row;
            for (const ExprPtr& expr : stage->exprs) {
              // Later computed columns may read earlier ones, as in the engine.
              ctx.tuple = extended;
              extended.push_back(EvalScalar(*expr, ctx));
            }
            output.push_back(std::move(extended));
          }
          outcome.merged_cells += stage->exprs.size();
        }
        rows = std::move(output);
        break;
      }
      case OpKind::kSort: {
        const std::vector<OutputColumn>& schema = *input_schema;
        std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
          for (const SortItem& item : stage->sort_items) {
            const size_t slot = static_cast<size_t>(item.slot);
            const ColumnType type = schema[slot].type;
            int cmp = 0;
            if (type == ColumnType::kDouble) {
              double lhs = std::bit_cast<double>(a[slot]);
              double rhs = std::bit_cast<double>(b[slot]);
              cmp = lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
            } else if (type == ColumnType::kString) {
              auto lhs = strings.Get(static_cast<uint64_t>(a[slot]));
              auto rhs = strings.Get(static_cast<uint64_t>(b[slot]));
              int raw = lhs.compare(rhs);
              cmp = raw < 0 ? -1 : (raw > 0 ? 1 : 0);
            } else {
              cmp = a[slot] < b[slot] ? -1 : (a[slot] > b[slot] ? 1 : 0);
            }
            if (cmp != 0) {
              return item.descending ? cmp > 0 : cmp < 0;
            }
          }
          return false;
        });
        if (stage->limit >= 0 && rows.size() > static_cast<size_t>(stage->limit)) {
          rows.resize(static_cast<size_t>(stage->limit));
        }
        break;
      }
      case OpKind::kLimit:
        if (rows.size() > static_cast<size_t>(stage->limit)) {
          rows.resize(static_cast<size_t>(stage->limit));
        }
        break;
      default:
        throw Error("shard merge: unsupported lifted stage");
    }
    input_schema = &stage->output;
  }

  cpu_.HostWork(segment_, kInstrsPerCell * outcome.merged_cells);
  outcome.merge_cycles = cpu_.tsc() - tsc_start;
  outcome.result = Result(recipe.final_output, std::move(rows));
  return outcome;
}

}  // namespace dfp
