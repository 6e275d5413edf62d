#include "src/shard/decompose.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/interp/interpreter.h"
#include "src/shard/partition.h"
#include "src/util/check.h"

namespace dfp {
namespace {

// The plan spine above the fan-out GroupBy: the sink, the lifted stages (top-down), and the
// GroupBy itself. Shared shape validation for BuildPartialPlan and BuildMergeRecipe.
struct FanoutSpine {
  const PhysicalOp* sink = nullptr;
  std::vector<const PhysicalOp*> stages_top_down;  // kLimit / kSort / kMap between sink and gb.
  const PhysicalOp* group_by = nullptr;
};

// How a subtree's rows lie across the shards. `split`: each shard computes a disjoint part of
// them (they descend from a partitioned table); otherwise every shard computes all of them.
// `order_key`: the output slot holding the order key (column 0 of orders and of lineitem), or
// -1 when no slot does.
struct RowPlacement {
  bool split = false;
  int order_key = -1;
};

// Position of `slot` in `slots`, or -1.
int IndexOf(const std::vector<int>& slots, int slot) {
  const auto it = std::find(slots.begin(), slots.end(), slot);
  return it == slots.end() ? -1 : static_cast<int>(it - slots.begin());
}

// Places `op`'s rows bottom-up, and throws for an operator whose per-shard outputs would not
// union to its unsharded output: one that pairs rows held on different shards, or one that
// keeps or counts rows by a rule that needs all of them at once.
RowPlacement PlaceRows(const PhysicalOp& op) {
  const auto refuse = [&op](const std::string& why) {
    throw Error("fan-out decomposition: " + op.label + " " + why);
  };
  switch (op.kind) {
    case OpKind::kTableScan: {
      const bool split = ShardCatalog::IsPartitionedTable(op.table->schema().name);
      return {split, split ? 0 : -1};
    }
    case OpKind::kFilter:
    case OpKind::kSort:
    case OpKind::kLimit: {
      const RowPlacement input = PlaceRows(*op.child(0));
      if (input.split && op.limit >= 0) {
        refuse("limits rows split across shards");
      }
      return input;
    }
    case OpKind::kMap: {
      RowPlacement input = PlaceRows(*op.child(0));
      if (op.projecting) {
        const auto it = std::find_if(op.exprs.begin(), op.exprs.end(), [&](const ExprPtr& e) {
          return e->kind == ExprKind::kColumnRef && e->slot == input.order_key;
        });
        input.order_key = it == op.exprs.end() ? -1 : static_cast<int>(it - op.exprs.begin());
      }
      return input;
    }
    case OpKind::kGroupBy: {
      const RowPlacement input = PlaceRows(*op.child(0));
      const int order_key = IndexOf(op.group_keys, input.order_key);
      if (input.split && order_key < 0) {
        refuse("groups rows split across shards without the order key");
      }
      return {input.split, order_key};
    }
    case OpKind::kHashJoin:
    case OpKind::kGroupJoin: {
      const RowPlacement build = PlaceRows(*op.child(0));
      const RowPlacement probe = PlaceRows(*op.child(1));
      const bool group_join = op.kind == OpKind::kGroupJoin;
      if (build.split && probe.split) {
        bool co_located = false;
        for (size_t k = 0; k < op.build_keys.size(); ++k) {
          co_located |= op.build_keys[k] == build.order_key && op.probe_keys[k] == probe.order_key;
        }
        if (!co_located) {
          refuse("joins two inputs split across shards on other than the order key");
        }
      } else if (build.split && !group_join && op.join_type != JoinType::kInner) {
        refuse("matches replicated probe rows against a build side split across shards");
      } else if (probe.split && group_join) {
        refuse("aggregates probe rows split across shards into replicated groups");
      }
      // Output: a GroupJoin's build payload; a HashJoin's probe columns, then (inner) its build
      // payload.
      const int payload_key = IndexOf(op.build_payload, build.order_key);
      if (group_join) {
        return {build.split, payload_key};
      }
      if (probe.split) {
        return {true, probe.order_key};
      }
      const int probe_width = static_cast<int>(op.child(1)->output.size());
      return {build.split, payload_key < 0 ? -1 : probe_width + payload_key};
    }
    case OpKind::kResultSink:
      break;
  }
  DFP_UNREACHABLE();
}

FanoutSpine WalkSpine(const PhysicalOp& root) {
  if (root.kind != OpKind::kResultSink) {
    throw Error("fan-out decomposition: plan root is not a ResultSink");
  }
  FanoutSpine spine;
  spine.sink = &root;
  const PhysicalOp* node = root.child(0);
  while (node->kind == OpKind::kLimit || node->kind == OpKind::kSort ||
         node->kind == OpKind::kMap) {
    spine.stages_top_down.push_back(node);
    node = node->child(0);
  }
  if (node->kind != OpKind::kGroupBy) {
    throw Error(std::string("fan-out decomposition: unsupported spine operator ") +
                OpKindName(node->kind) + " (expected GroupBy under the sink stages)");
  }
  spine.group_by = node;
  PlaceRows(*node->child(0));
  return spine;
}

// Type of the kSum partial accumulating `in_type` inputs: doubles sum as doubles, everything
// else (int64, scaled decimal) as integers (see AggState).
ColumnType SumPartialType(ColumnType in_type) {
  if (in_type == ColumnType::kDouble) {
    return ColumnType::kDouble;
  }
  return in_type == ColumnType::kDecimal ? ColumnType::kDecimal : ColumnType::kInt64;
}

}  // namespace

bool PlanTouchesPartitionedTable(const PhysicalOp& root) {
  if (root.kind == OpKind::kTableScan && root.table != nullptr &&
      ShardCatalog::IsPartitionedTable(root.table->schema().name)) {
    return true;
  }
  for (const PhysicalOpPtr& child : root.children) {
    if (PlanTouchesPartitionedTable(*child)) {
      return true;
    }
  }
  return false;
}

PhysicalOpPtr BuildPartialPlan(const PhysicalOp& root) {
  const FanoutSpine spine = WalkSpine(root);
  PhysicalOpPtr partial_gb = ClonePlan(*spine.group_by);

  std::vector<ExprPtr> partial_aggs;
  std::vector<OutputColumn> partial_cols;
  partial_aggs.reserve(partial_gb->exprs.size() + 1);
  size_t agg_index = 0;
  for (ExprPtr& agg : partial_gb->exprs) {
    DFP_CHECK(agg->kind == ExprKind::kAggregate);
    const std::string base = "p" + std::to_string(agg_index++);
    if (agg->agg == AggOp::kAvg) {
      // AVG is not directly mergeable; ship SUM and COUNT(*) and divide at the coordinator
      // with the engine's exact finalization arithmetic.
      const ColumnType in_type = AggInputType(*agg);
      ExprPtr sum = MakeAggregate(AggOp::kSum, agg->left->Clone());
      sum->type = SumPartialType(in_type);
      partial_cols.push_back({base + "_sum", sum->type});
      partial_aggs.push_back(std::move(sum));
      ExprPtr count = MakeAggregate(AggOp::kCountStar, nullptr);
      partial_cols.push_back({base + "_count", ColumnType::kInt64});
      partial_aggs.push_back(std::move(count));
    } else {
      // SUM/COUNT/MIN/MAX partials are the aggregate itself, combined at the coordinator by
      // sum (or min/max) over the per-shard values.
      partial_cols.push_back({base, agg->type});
      partial_aggs.push_back(std::move(agg));
    }
  }
  partial_gb->exprs = std::move(partial_aggs);

  std::vector<OutputColumn> output;
  const size_t keys = partial_gb->group_keys.size();
  output.reserve(keys + partial_cols.size());
  for (size_t k = 0; k < keys; ++k) {
    output.push_back(spine.group_by->output[k]);
  }
  for (OutputColumn& col : partial_cols) {
    output.push_back(std::move(col));
  }
  partial_gb->output = output;
  partial_gb->label = "GroupBy partial";

  auto sink = std::make_unique<PhysicalOp>();
  sink->kind = OpKind::kResultSink;
  sink->label = "ResultSink";
  sink->output = std::move(output);
  sink->children.push_back(std::move(partial_gb));
  FinalizePlan(*sink);
  return sink;
}

MergeRecipe BuildMergeRecipe(const PhysicalOp& root) {
  const FanoutSpine spine = WalkSpine(root);
  MergeRecipe recipe;
  recipe.group_keys = spine.group_by->group_keys.size();
  recipe.merged_output = spine.group_by->output;
  recipe.final_output = spine.sink->output;

  int col = static_cast<int>(recipe.group_keys);
  for (const ExprPtr& agg : spine.group_by->exprs) {
    DFP_CHECK(agg->kind == ExprKind::kAggregate);
    recipe.aggs.push_back({agg->agg, AggInputType(*agg), col});
    col += agg->agg == AggOp::kAvg ? 2 : 1;
  }

  // Lift the post-aggregation stages as childless clones, bottom-up (execution order).
  for (auto it = spine.stages_top_down.rbegin(); it != spine.stages_top_down.rend(); ++it) {
    const PhysicalOp& stage = **it;
    auto clone = std::make_unique<PhysicalOp>();
    clone->kind = stage.kind;
    clone->id = stage.id;
    clone->label = stage.label;
    clone->output = stage.output;
    clone->projecting = stage.projecting;
    clone->sort_items = stage.sort_items;
    clone->limit = stage.limit;
    clone->exprs.reserve(stage.exprs.size());
    for (const ExprPtr& expr : stage.exprs) {
      clone->exprs.push_back(expr->Clone());
    }
    recipe.stages.push_back(std::move(clone));
  }
  return recipe;
}

}  // namespace dfp
