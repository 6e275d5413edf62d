#include "src/interp/interpreter.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "src/plan/eval.h"
#include "src/util/check.h"

namespace dfp {
namespace {

using Row = std::vector<int64_t>;
using Rows = std::vector<Row>;

class PlanInterpreter {
 public:
  explicit PlanInterpreter(Database& db) : db_(db) {
    ctx_.strings = &db.strings();
  }

  Rows Execute(const PhysicalOp& op) {
    switch (op.kind) {
      case OpKind::kTableScan:
        return ExecuteScan(op);
      case OpKind::kFilter:
      case OpKind::kMap:
      case OpKind::kSort:
      case OpKind::kLimit: {
        Rows rows = Execute(*op.child(0));
        ApplyRowOperator(op, op.child(0)->output, db_.strings(), rows);
        return rows;
      }
      case OpKind::kHashJoin:
        return ExecuteJoin(op);
      case OpKind::kGroupBy:
        return ExecuteGroupBy(op);
      case OpKind::kGroupJoin:
        return ExecuteGroupJoin(op);
      case OpKind::kResultSink:
        return Execute(*op.child(0));
    }
    DFP_UNREACHABLE();
  }

 private:
  int64_t Eval(const Expr& expr, const Row& row) {
    ctx_.tuple = row;
    return EvalScalar(expr, ctx_);
  }

  Rows ExecuteScan(const PhysicalOp& op) {
    const Table& table = *op.table;
    Rows rows;
    rows.reserve(table.row_count());
    const size_t columns = table.schema().columns.size();
    for (uint64_t r = 0; r < table.row_count(); ++r) {
      Row row(columns);
      for (size_t c = 0; c < columns; ++c) {
        row[c] = table.Get(db_.mem(), c, r);
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }

  Rows ExecuteJoin(const PhysicalOp& op) {
    Rows build = Execute(*op.child(0));
    Rows probe = Execute(*op.child(1));
    std::unordered_map<Row, std::vector<const Row*>, KeyHash> table;
    for (const Row& row : build) {
      Row key;
      for (int slot : op.build_keys) {
        key.push_back(row[static_cast<size_t>(slot)]);
      }
      table[key].push_back(&row);
    }
    Rows output;
    for (Row& row : probe) {
      Row key;
      for (int slot : op.probe_keys) {
        key.push_back(row[static_cast<size_t>(slot)]);
      }
      auto it = table.find(key);
      switch (op.join_type) {
        case JoinType::kInner:
          if (it != table.end()) {
            for (const Row* match : it->second) {
              Row combined = row;
              for (int slot : op.build_payload) {
                combined.push_back((*match)[static_cast<size_t>(slot)]);
              }
              output.push_back(std::move(combined));
            }
          }
          break;
        case JoinType::kSemi:
          if (it != table.end()) {
            output.push_back(std::move(row));
          }
          break;
        case JoinType::kAnti:
          if (it == table.end()) {
            output.push_back(std::move(row));
          }
          break;
      }
    }
    return output;
  }

  void UpdateAgg(const Expr& agg, AggState& state, const Row& row) {
    const int64_t input = agg.left != nullptr ? Eval(*agg.left, row) : 0;
    Accumulate(agg.agg, AggInputType(agg), input, 1, state);
  }

  Rows ExecuteGroupBy(const PhysicalOp& op) {
    Rows input = Execute(*op.child(0));
    std::unordered_map<Row, std::vector<AggState>, KeyHash> groups;
    std::vector<Row> order;  // Deterministic output order (first appearance).
    for (const Row& row : input) {
      Row key;
      for (int slot : op.group_keys) {
        key.push_back(row[static_cast<size_t>(slot)]);
      }
      auto [it, inserted] = groups.try_emplace(key, op.exprs.size());
      if (inserted) {
        order.push_back(key);
      }
      for (size_t a = 0; a < op.exprs.size(); ++a) {
        UpdateAgg(*op.exprs[a], it->second[a], row);
      }
    }
    Rows output;
    output.reserve(order.size());
    for (const Row& key : order) {
      Row row = key;
      const std::vector<AggState>& states = groups[key];
      for (size_t a = 0; a < op.exprs.size(); ++a) {
        row.push_back(FinalizeAgg(op.exprs[a]->agg, AggInputType(*op.exprs[a]), states[a]));
      }
      output.push_back(std::move(row));
    }
    return output;
  }

  Rows ExecuteGroupJoin(const PhysicalOp& op) {
    Rows build = Execute(*op.child(0));
    Rows probe = Execute(*op.child(1));
    // One group per build row (build keys assumed unique, as in the compiled engine).
    std::unordered_map<Row, size_t, KeyHash> index;
    std::vector<std::vector<AggState>> states;
    for (const Row& row : build) {
      Row key;
      for (int slot : op.build_keys) {
        key.push_back(row[static_cast<size_t>(slot)]);
      }
      DFP_CHECK(index.emplace(key, states.size()).second);
      states.emplace_back(op.exprs.size());
    }
    for (const Row& row : probe) {
      Row key;
      for (int slot : op.probe_keys) {
        key.push_back(row[static_cast<size_t>(slot)]);
      }
      auto it = index.find(key);
      if (it == index.end()) {
        continue;
      }
      for (size_t a = 0; a < op.exprs.size(); ++a) {
        UpdateAgg(*op.exprs[a], states[it->second][a], row);
      }
    }
    Rows output;
    output.reserve(build.size());
    for (size_t g = 0; g < build.size(); ++g) {
      Row row;
      for (int slot : op.build_payload) {
        row.push_back(build[g][static_cast<size_t>(slot)]);
      }
      for (size_t a = 0; a < op.exprs.size(); ++a) {
        row.push_back(FinalizeAgg(op.exprs[a]->agg, AggInputType(*op.exprs[a]), states[g][a]));
      }
      output.push_back(std::move(row));
    }
    return output;
  }

  Database& db_;
  EvalContext ctx_;
};

void SortRows(const PhysicalOp& op, const std::vector<OutputColumn>& schema,
              const StringHeap& strings, Rows& rows) {
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const SortItem& item : op.sort_items) {
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
}

}  // namespace

ColumnType AggInputType(const Expr& agg) {
  return agg.left != nullptr ? agg.left->type : ColumnType::kInt64;
}

size_t KeyHash::operator()(const std::vector<int64_t>& key) const {
  size_t hash = 14695981039346656037ull;
  for (int64_t value : key) {
    hash = (hash ^ static_cast<size_t>(value)) * 1099511628211ull;
  }
  return hash;
}

void Accumulate(AggOp op, ColumnType in_type, int64_t value, int64_t count, AggState& state) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kAvg:
      if (in_type == ColumnType::kDouble) {
        state.sum_double += std::bit_cast<double>(value);
      } else {
        state.sum_int += value;
      }
      state.count += count;
      break;
    case AggOp::kCount:
    case AggOp::kCountStar:
      state.count += count;
      break;
    case AggOp::kMin:
    case AggOp::kMax: {
      if (in_type == ColumnType::kDouble) {
        double extreme = std::bit_cast<double>(value);
        if (!state.seen || (op == AggOp::kMin ? extreme < state.extreme_double
                                              : extreme > state.extreme_double)) {
          state.extreme_double = extreme;
        }
      } else {
        if (!state.seen ||
            (op == AggOp::kMin ? value < state.extreme_int : value > state.extreme_int)) {
          state.extreme_int = value;
        }
      }
      state.seen = true;
      break;
    }
  }
}

int64_t FinalizeAgg(AggOp op, ColumnType in_type, const AggState& state) {
  switch (op) {
    case AggOp::kSum:
      return in_type == ColumnType::kDouble ? std::bit_cast<int64_t>(state.sum_double)
                                            : state.sum_int;
    case AggOp::kCount:
    case AggOp::kCountStar:
      return state.count;
    case AggOp::kMin:
    case AggOp::kMax:
      return in_type == ColumnType::kDouble ? std::bit_cast<int64_t>(state.extreme_double)
                                            : state.extreme_int;
    case AggOp::kAvg: {
      // Matches the generated finalization exactly: promote the sum to double, divide by the
      // count as double (0/0 yields NaN for empty groupjoin groups).
      double sum;
      if (in_type == ColumnType::kDouble) {
        sum = state.sum_double;
      } else if (in_type == ColumnType::kDecimal) {
        sum = static_cast<double>(state.sum_int) / 100.0;
      } else {
        sum = static_cast<double>(state.sum_int);
      }
      return std::bit_cast<int64_t>(sum / static_cast<double>(state.count));
    }
  }
  DFP_UNREACHABLE();
}

void ApplyRowOperator(const PhysicalOp& op, const std::vector<OutputColumn>& input_schema,
                      const StringHeap& strings, Rows& rows) {
  EvalContext ctx;
  ctx.strings = &strings;
  switch (op.kind) {
    case OpKind::kFilter:
      std::erase_if(rows, [&](const Row& row) {
        ctx.tuple = row;
        return EvalScalar(*op.exprs[0], ctx) == 0;
      });
      return;
    case OpKind::kMap:
      for (Row& row : rows) {
        if (op.projecting) {
          Row projected;
          projected.reserve(op.exprs.size());
          ctx.tuple = row;
          for (const ExprPtr& expr : op.exprs) {
            projected.push_back(EvalScalar(*expr, ctx));
          }
          row = std::move(projected);
        } else {
          for (const ExprPtr& expr : op.exprs) {
            // Later computed columns may read earlier ones, as in the engine.
            ctx.tuple = row;
            row.push_back(EvalScalar(*expr, ctx));
          }
        }
      }
      return;
    case OpKind::kSort:
      SortRows(op, input_schema, strings, rows);
      break;
    case OpKind::kLimit:
      break;
    default:
      DFP_UNREACHABLE();
  }
  if (op.limit >= 0 && rows.size() > static_cast<size_t>(op.limit)) {
    rows.resize(static_cast<size_t>(op.limit));
  }
}

Result InterpretPlan(Database& db, const PhysicalOp& root) {
  PlanInterpreter interpreter(db);
  Rows rows = interpreter.Execute(root);
  return Result(root.output, std::move(rows));
}

}  // namespace dfp
