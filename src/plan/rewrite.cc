#include "src/plan/rewrite.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace dfp {

CardinalityMap EstimatedCardinalities(const PhysicalOp& root) {
  CardinalityMap out;
  const std::function<void(const PhysicalOp&)> walk = [&](const PhysicalOp& op) {
    out[op.id] = op.estimated_rows <= 0 ? op.bound_rows
                                        : static_cast<uint64_t>(std::llround(op.estimated_rows));
    for (const PhysicalOpPtr& child : op.children) {
      walk(*child);
    }
  };
  walk(root);
  return out;
}

void InjectCardinalities(PhysicalOp& root, const CardinalityMap& observed) {
  for (PhysicalOp* op : PlanOperators(root)) {
    auto it = observed.find(op->id);
    if (it != observed.end()) {
      op->estimated_rows = static_cast<double>(std::max<uint64_t>(it->second, 1));
    }
  }
}

namespace {

// The semi-join gate: observed build rows at least this many percent of the plan-time estimate.
constexpr uint64_t kSemiJoinBlowupPct = 300;

// Location of the topmost reorderable join spine: the unique_ptr slot holding its top join plus
// the ancestor chain from the root down to that slot (root-first, with the child index taken).
struct SpineSite {
  PhysicalOpPtr* slot = nullptr;
  std::vector<std::pair<PhysicalOp*, size_t>> ancestors;
};

bool FindSpine(PhysicalOpPtr& slot, SpineSite* site) {
  PhysicalOp* op = slot.get();
  if (op->kind == OpKind::kHashJoin && op->child(1)->kind == OpKind::kHashJoin) {
    site->slot = &slot;
    return true;
  }
  for (size_t i = 0; i < op->children.size(); ++i) {
    site->ancestors.emplace_back(op, i);
    if (FindSpine(op->children[i], site)) {
      return true;
    }
    site->ancestors.pop_back();
  }
  return false;
}

bool IsIdentity(const std::vector<int>& perm) {
  for (size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != static_cast<int>(i)) {
      return false;
    }
  }
  return true;
}

// Applies `perm` (old slot -> new slot of child `child_index`'s output) to `op`, rewriting its
// slot references and output schema. Returns the permutation of op's own output; an empty
// result means op's output is unchanged and propagation stops.
std::vector<int> PropagateThroughOp(PhysicalOp& op, size_t child_index, std::vector<int> perm) {
  PhysicalOp& child = *op.children[child_index];
  switch (op.kind) {
    case OpKind::kFilter:
      RemapSlots(*op.exprs[0], perm);
      op.output = child.output;
      return perm;
    case OpKind::kMap: {
      for (ExprPtr& expr : op.exprs) {
        RemapSlots(*expr, perm);
      }
      if (op.projecting) {
        return {};  // The projection fixes the schema from here up.
      }
      const size_t computed = op.exprs.size();
      std::vector<OutputColumn> tail(op.output.end() - static_cast<ptrdiff_t>(computed),
                                     op.output.end());
      op.output = child.output;
      op.output.insert(op.output.end(), tail.begin(), tail.end());
      for (size_t j = 0; j < computed; ++j) {
        perm.push_back(static_cast<int>(perm.size()));
      }
      return perm;
    }
    case OpKind::kHashJoin: {
      if (child_index == 0) {  // Build side permuted: keys/payload follow, output is unchanged.
        for (int& key : op.build_keys) {
          key = perm[static_cast<size_t>(key)];
        }
        for (int& slot : op.build_payload) {
          slot = perm[static_cast<size_t>(slot)];
        }
        return {};
      }
      for (int& key : op.probe_keys) {
        key = perm[static_cast<size_t>(key)];
      }
      if (op.join_type == JoinType::kInner) {
        const size_t payload = op.build_payload.size();
        std::vector<OutputColumn> tail(op.output.end() - static_cast<ptrdiff_t>(payload),
                                       op.output.end());
        op.output = child.output;
        op.output.insert(op.output.end(), tail.begin(), tail.end());
        for (size_t j = 0; j < payload; ++j) {
          perm.push_back(static_cast<int>(perm.size()));
        }
      } else {
        op.output = child.output;
      }
      return perm;
    }
    case OpKind::kGroupJoin:
      if (child_index == 0) {
        for (int& key : op.build_keys) {
          key = perm[static_cast<size_t>(key)];
        }
        for (int& slot : op.build_payload) {
          slot = perm[static_cast<size_t>(slot)];
        }
      } else {
        for (int& key : op.probe_keys) {
          key = perm[static_cast<size_t>(key)];
        }
        for (ExprPtr& expr : op.exprs) {
          RemapSlots(*expr, perm);
        }
      }
      return {};  // Output is build keys + aggregates: independent of probe column order.
    case OpKind::kGroupBy:
      for (int& key : op.group_keys) {
        key = perm[static_cast<size_t>(key)];
      }
      for (ExprPtr& expr : op.exprs) {
        RemapSlots(*expr, perm);
      }
      return {};
    case OpKind::kSort:
      for (SortItem& item : op.sort_items) {
        item.slot = perm[static_cast<size_t>(item.slot)];
      }
      op.output = child.output;
      return perm;
    case OpKind::kLimit:
      op.output = child.output;
      return perm;
    case OpKind::kResultSink: {
      // The permutation survived to the root: restore the original column order with a
      // projecting Map so the materialized result stays bit-identical to the original plan's.
      auto restore = std::make_unique<PhysicalOp>();
      restore->kind = OpKind::kMap;
      restore->projecting = true;
      restore->label = "Map reopt-restore";
      restore->output.resize(perm.size());
      restore->exprs.resize(perm.size());
      for (size_t j = 0; j < perm.size(); ++j) {
        const size_t moved = static_cast<size_t>(perm[j]);
        restore->output[j] = child.output[moved];
        restore->exprs[j] = MakeColumnRef(static_cast<int>(moved), child.output[moved].type);
      }
      restore->children.push_back(std::move(op.children[child_index]));
      op.children[child_index] = std::move(restore);
      op.output = op.children[child_index]->output;
      return {};
    }
    case OpKind::kTableScan:
      break;
  }
  DFP_CHECK(false);  // Scans have no children; every other kind is handled above.
  return {};
}

bool SubtreeHasReduction(const PhysicalOp& op) {
  if (op.label.rfind("SemiJoinReduction", 0) == 0) {
    return true;
  }
  for (const PhysicalOpPtr& child : op.children) {
    if (SubtreeHasReduction(*child)) {
      return true;
    }
  }
  return false;
}

}  // namespace

ReoptRewrite ReoptimizePlan(const PhysicalOp& original, const CardinalityMap& observed,
                            const ReoptRewriteOptions& options) {
  ReoptRewrite out;
  PhysicalOpPtr clone = ClonePlan(original);
  const CardinalityMap planned = EstimatedCardinalities(*clone);
  InjectCardinalities(*clone, observed);

  SpineSite site;
  if (!FindSpine(clone, &site)) {
    return out;
  }

  // Legality: every spine join must key its probe side on the base stream's own columns (slots
  // below the base width), never on a lower join's payload — otherwise the order is forced.
  std::vector<PhysicalOp*> spine;
  for (PhysicalOp* cursor = site.slot->get(); cursor->kind == OpKind::kHashJoin;
       cursor = cursor->child(1)) {
    spine.push_back(cursor);
  }
  PhysicalOp* base = spine.back()->child(1);
  const int base_width = static_cast<int>(base->output.size());
  for (const PhysicalOp* join : spine) {
    for (int key : join->probe_keys) {
      if (key >= base_width) {
        return out;
      }
    }
  }

  // Detach the chain. `joins` ends up bottom-to-top, matching slot-layout order.
  std::vector<PhysicalOpPtr> joins;
  PhysicalOpPtr base_ptr;
  {
    PhysicalOpPtr cursor = std::move(*site.slot);
    while (cursor->kind == OpKind::kHashJoin) {
      PhysicalOpPtr next = std::move(cursor->children[1]);
      joins.push_back(std::move(cursor));
      cursor = std::move(next);
    }
    base_ptr = std::move(cursor);
  }
  std::reverse(joins.begin(), joins.end());
  const size_t n_spine = joins.size();

  // The binder's greedy rule on measurements: smallest build side lowest. estimated_rows already
  // carries the injected observations (with plan-time estimates as the fallback).
  std::vector<size_t> order(n_spine);
  std::iota(order.begin(), order.end(), 0);
  const auto build_rows = [](const PhysicalOp& join) -> uint64_t {
    const double estimate = join.child(0)->estimated_rows;
    return estimate <= 0 ? join.child(0)->bound_rows
                         : static_cast<uint64_t>(std::llround(estimate));
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const uint64_t rows_a = build_rows(*joins[a]);
    const uint64_t rows_b = build_rows(*joins[b]);
    return options.pessimize ? rows_a > rows_b : rows_a < rows_b;
  });
  bool reordered = false;
  for (size_t pos = 0; pos < n_spine; ++pos) {
    reordered |= order[pos] != pos;
  }

  // Slot permutation of the spine-top output: the base block stays put, payload blocks move
  // with their joins. Semi/anti joins contribute no payload.
  std::vector<std::vector<OutputColumn>> payload_cols(n_spine);
  std::vector<size_t> old_start(n_spine);
  std::vector<size_t> new_start(n_spine);
  size_t offset = static_cast<size_t>(base_width);
  for (size_t k = 0; k < n_spine; ++k) {
    const PhysicalOp& join = *joins[k];
    const size_t payload =
        join.join_type == JoinType::kInner ? join.build_payload.size() : 0;
    payload_cols[k].assign(join.output.end() - static_cast<ptrdiff_t>(payload),
                           join.output.end());
    old_start[k] = offset;
    offset += payload;
  }
  const size_t total = offset;
  offset = static_cast<size_t>(base_width);
  for (size_t pos = 0; pos < n_spine; ++pos) {
    const size_t k = order[pos];
    new_start[k] = offset;
    offset += payload_cols[k].size();
  }
  std::vector<int> perm(total);
  for (int i = 0; i < base_width; ++i) {
    perm[static_cast<size_t>(i)] = i;
  }
  for (size_t k = 0; k < n_spine; ++k) {
    for (size_t t = 0; t < payload_cols[k].size(); ++t) {
      perm[old_start[k] + t] = static_cast<int>(new_start[k] + t);
    }
  }

  // Rebuild bottom-up in the measured order, recomputing each join's output schema.
  PhysicalOpPtr cursor = std::move(base_ptr);
  for (size_t pos = 0; pos < n_spine; ++pos) {
    PhysicalOpPtr join = std::move(joins[order[pos]]);
    join->output = cursor->output;
    join->output.insert(join->output.end(), payload_cols[order[pos]].begin(),
                        payload_cols[order[pos]].end());
    join->children[1] = std::move(cursor);
    cursor = std::move(join);
  }
  *site.slot = std::move(cursor);

  // Semi-join reduction: duplicate the worst-blowup upper join as a semi filter directly above
  // the base stream. Legal because all spine keys hit the base block, and because the chosen
  // join (inner or semi) would drop the non-matching rows anyway — the reduction only moves
  // that death earlier. Gated on MEASURED blowup, never estimates.
  bool semi_inserted = false;
  if (options.semi_join_reduction && n_spine >= 2) {
    std::vector<PhysicalOp*> rebuilt;
    for (PhysicalOp* walk = site.slot->get(); walk->kind == OpKind::kHashJoin;
         walk = walk->child(1)) {
      rebuilt.push_back(walk);
    }
    PhysicalOp* best = nullptr;
    uint64_t best_ratio = 0;
    for (size_t i = 0; i + 1 < rebuilt.size(); ++i) {  // The bottom join gains nothing.
      PhysicalOp* join = rebuilt[i];
      if (join->join_type == JoinType::kAnti) {
        continue;  // Anti keeps the non-matching rows; filtering them early is wrong.
      }
      auto obs = observed.find(join->child(0)->id);
      if (obs == observed.end()) {
        continue;
      }
      auto est = planned.find(join->child(0)->id);
      const uint64_t planned_rows = est == planned.end() ? 0 : est->second;
      const uint64_t ratio = 100 * obs->second / std::max<uint64_t>(planned_rows, 1);
      if (ratio >= kSemiJoinBlowupPct && ratio > best_ratio) {
        best = join;
        best_ratio = ratio;
      }
    }
    PhysicalOp* bottom = rebuilt.back();
    if (best != nullptr && !SubtreeHasReduction(*bottom->child(1))) {
      auto reducer = std::make_unique<PhysicalOp>();
      reducer->kind = OpKind::kHashJoin;
      reducer->join_type = JoinType::kSemi;
      reducer->label =
          "SemiJoinReduction " + (best->label.empty() ? "HashJoin" : best->label);
      reducer->build_keys = best->build_keys;
      reducer->probe_keys = best->probe_keys;
      reducer->children.push_back(ClonePlan(*best->child(0)));
      reducer->children.push_back(std::move(bottom->children[1]));
      reducer->output = reducer->child(1)->output;
      bottom->children[1] = std::move(reducer);
      semi_inserted = true;
    }
  }

  if (!reordered && !semi_inserted) {
    return out;  // Measurements agree with the plan.
  }

  if (!IsIdentity(perm)) {
    std::vector<int> carried = perm;
    for (auto it = site.ancestors.rbegin(); it != site.ancestors.rend(); ++it) {
      carried = PropagateThroughOp(*it->first, it->second, std::move(carried));
      if (carried.empty() || IsIdentity(carried)) {
        carried.clear();
        break;
      }
    }
    // A surviving permutation means the plan root was not a ResultSink: unsupported shape.
    DFP_CHECK(carried.empty());
  }

  FinalizePlan(*clone);
  out.plan = std::move(clone);
  out.changed = true;
  out.reordered = reordered;
  out.semi_join = semi_inserted;
  if (reordered) {
    out.description = "reorder ";
    for (size_t pos = 0; pos < n_spine; ++pos) {
      if (pos > 0) {
        out.description += ',';
      }
      out.description += std::to_string(order[pos]);
    }
  }
  if (semi_inserted) {
    out.description += out.description.empty() ? "semijoin" : " semijoin";
  }
  return out;
}

}  // namespace dfp
