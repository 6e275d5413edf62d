// The physical dataflow graph: the topmost abstraction level of the profiling hierarchy.
//
// A query is a tree of physical operators. Each operator carries a plan-wide id that Tailored
// Profiling uses as the OperatorId of the dataflow-graph abstraction level (the Tagging
// Dictionary's Log A maps pipeline tasks to these ids).
#ifndef DFP_SRC_PLAN_PHYSICAL_H_
#define DFP_SRC_PLAN_PHYSICAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/plan/expr.h"
#include "src/storage/table.h"

namespace dfp {

using OperatorId = uint32_t;

enum class OpKind : uint8_t {
  kTableScan,
  kFilter,
  kMap,        // Appends computed columns to the tuple.
  kHashJoin,   // children[0] = build side, children[1] = probe side.
  kGroupBy,    // Hash aggregation; breaker.
  kGroupJoin,  // Fused group-by + join (paper Section 5.4); children like kHashJoin.
  kSort,       // Breaker; materializes, sorts, rescans.
  kLimit,
  kResultSink,  // Root; materializes the result rows.
};

enum class JoinType : uint8_t { kInner, kSemi, kAnti };

const char* OpKindName(OpKind kind);

struct OutputColumn {
  std::string name;
  ColumnType type = ColumnType::kInt64;
};

struct SortItem {
  int slot = 0;
  bool descending = false;
};

struct PhysicalOp {
  OpKind kind = OpKind::kTableScan;
  OperatorId id = 0;  // Assigned when the plan is finalized.
  std::string label;  // Human-readable ("HashJoin o_orderkey=l_orderkey").
  std::vector<std::unique_ptr<PhysicalOp>> children;
  std::vector<OutputColumn> output;

  // kTableScan.
  const Table* table = nullptr;

  // kFilter: exprs[0] = predicate (kBool).
  // kMap: exprs = computed columns appended to the input tuple (or replacing it, see below).
  // kGroupBy / kGroupJoin: aggregate expressions (kAggregate over input slots).
  std::vector<ExprPtr> exprs;

  // kMap only: when set, the computed columns REPLACE the input tuple (pure projection).
  bool projecting = false;

  // kHashJoin / kGroupJoin: key slots in the respective child's output.
  std::vector<int> build_keys;
  std::vector<int> probe_keys;
  JoinType join_type = JoinType::kInner;
  // kHashJoin: build-side slots appended to the probe tuple (inner joins only).
  std::vector<int> build_payload;

  // kGroupBy: grouping slots. kGroupJoin groups by its build keys.
  std::vector<int> group_keys;

  // kSort.
  std::vector<SortItem> sort_items;
  // kLimit (also honored by kSort for top-k output).
  int64_t limit = -1;

  // Upper bound on produced rows, filled by FinalizePlan (used to size hash tables/buffers).
  uint64_t bound_rows = 0;
  // Optimizer's cardinality estimate (used for join ordering and reports).
  double estimated_rows = 0;

  PhysicalOp* child(size_t i) const { return children[i].get(); }
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

// Assigns operator ids (pre-order), computes row bounds and output schemas sanity, and returns
// the operator count. Must be called once on a complete plan before compilation/interpretation.
uint32_t FinalizePlan(PhysicalOp& root);

// All operators in pre-order (root first).
std::vector<PhysicalOp*> PlanOperators(PhysicalOp& root);

// Deep copy of a finalized (or unfinalized) plan: operators, expressions, ids, labels, and the
// bounds FinalizePlan computed. Table pointers are shared (catalog-owned). Used by the tiered
// compiler to recompile a cached plan in the background while the cached entry keeps serving.
PhysicalOpPtr ClonePlan(const PhysicalOp& root);

// Renders the plan as an indented tree, one operator per line, optionally annotating each
// operator via `annotate(op)` (used for cost-annotated plans, Figure 9b).
std::string RenderPlanTree(const PhysicalOp& root,
                           const std::function<std::string(const PhysicalOp&)>& annotate = {});

}  // namespace dfp

#endif  // DFP_SRC_PLAN_PHYSICAL_H_
