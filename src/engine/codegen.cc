#include "src/engine/codegen.h"

#include <bit>
#include <functional>
#include <optional>

#include "src/ir/builder.h"
#include "src/profiling/validation.h"
#include "src/runtime/hashtable.h"
#include "src/util/check.h"
#include "src/util/decimal.h"
#include "src/util/hash.h"
#include "src/util/str.h"

namespace dfp {
namespace {

// ---------------------------------------------------------------------------------------------
// Small helpers shared by the emitters.
// ---------------------------------------------------------------------------------------------

uint64_t SlotKey(OperatorId op, StateSlot purpose) {
  return static_cast<uint64_t>(op) * 16 + static_cast<uint64_t>(purpose);
}

// A value flowing through the pipeline: an IR value plus its column type.
struct SlotVal {
  Value value;
  ColumnType type = ColumnType::kInt64;
};

// The current tuple during code generation: lazy per-slot loaders with caching, the core of
// data-centric produce/consume code generation (columns are only loaded when first used).
class TupleContext {
 public:
  using Loader = std::function<SlotVal()>;

  explicit TupleContext(std::vector<Loader> loaders)
      : loaders_(std::move(loaders)), cache_(loaders_.size()) {}

  SlotVal Get(int slot) {
    DFP_CHECK(slot >= 0 && static_cast<size_t>(slot) < loaders_.size());
    std::optional<SlotVal>& cached = cache_[static_cast<size_t>(slot)];
    if (!cached.has_value()) {
      cached = loaders_[static_cast<size_t>(slot)]();
    }
    return *cached;
  }

  void Append(Loader loader) {
    loaders_.push_back(std::move(loader));
    cache_.emplace_back();
  }

  void AppendValue(SlotVal value) {
    loaders_.push_back([value] { return value; });
    cache_.push_back(value);
  }

  void Replace(std::vector<Loader> loaders) {
    loaders_ = std::move(loaders);
    cache_.assign(loaders_.size(), std::nullopt);
  }

  // Drops slots appended after `size` (leaving a nested scope such as a join match block).
  void Truncate(size_t size) {
    DFP_CHECK(size <= loaders_.size());
    loaders_.resize(size);
    cache_.resize(size);
  }

  size_t size() const { return loaders_.size(); }

  // Cache snapshots guard against values loaded on conditionally-executed paths leaking into
  // unconditional consumers (see EmitCondJump / CASE emission).
  std::vector<std::optional<SlotVal>> Snapshot() const { return cache_; }
  void Restore(std::vector<std::optional<SlotVal>> snapshot) { cache_ = std::move(snapshot); }

 private:
  std::vector<Loader> loaders_;
  std::vector<std::optional<SlotVal>> cache_;
};

// Aggregate payload layout of a group entry.
struct AggSlot {
  AggOp op = AggOp::kSum;
  ColumnType in_type = ColumnType::kInt64;
  ColumnType out_type = ColumnType::kInt64;
  int64_t offset = 0;   // sum/min/max/count slot.
  int64_t offset2 = 0;  // avg: count slot.
};

struct GroupLayout {
  std::vector<ColumnType> key_types;
  std::vector<ColumnType> extra_types;  // GroupJoin build payload columns.
  std::vector<AggSlot> aggs;
  uint64_t payload_bytes = 0;

  int64_t KeyOffset(size_t i) const { return static_cast<int64_t>(i) * 8; }
  int64_t ExtraOffset(size_t i) const {
    return static_cast<int64_t>(key_types.size() + i) * 8;
  }
};

GroupLayout ComputeGroupLayout(const std::vector<ColumnType>& key_types,
                               const std::vector<ColumnType>& extra_types,
                               const std::vector<ExprPtr>& aggregates) {
  GroupLayout layout;
  layout.key_types = key_types;
  layout.extra_types = extra_types;
  int64_t offset = static_cast<int64_t>((key_types.size() + extra_types.size()) * 8);
  for (const ExprPtr& agg : aggregates) {
    AggSlot slot;
    slot.op = agg->agg;
    slot.in_type = agg->left != nullptr ? agg->left->type : ColumnType::kInt64;
    slot.out_type = agg->type;
    slot.offset = offset;
    offset += 8;
    if (agg->agg == AggOp::kAvg) {
      slot.offset2 = offset;
      offset += 8;
    }
    layout.aggs.push_back(slot);
  }
  layout.payload_bytes = static_cast<uint64_t>(offset);
  return layout;
}

// ---------------------------------------------------------------------------------------------
// Lowering step 1: plan -> pipelines of tasks + execution schedule.
// ---------------------------------------------------------------------------------------------

class PlanLowering {
 public:
  PlanLowering(ProfilingSession* session, CompiledQuery* out) : session_(session), out_(out) {}

  void Run(PhysicalOp& root) { Lower(root, {}); }

 private:
  TaskId MakeTask(PhysicalOp& op, const char* name) {
    if (session_ == nullptr) {
      return kNoTask;
    }
    // Abstraction Tracker discipline: the operator is active while its tasks are registered.
    TrackerScope<OperatorId> scope(&session_->operator_tracker(), op.id);
    return session_->dictionary().AddTask(session_->operator_tracker().Active(), name);
  }

  uint32_t ReserveState(OperatorId op, StateSlot purpose) {
    uint64_t key = SlotKey(op, purpose);
    auto it = state_offsets_.find(key);
    if (it != state_offsets_.end()) {
      return it->second;
    }
    uint32_t offset = static_cast<uint32_t>(out_->state_bytes);
    out_->state_bytes += 8;
    state_offsets_.emplace(key, offset);
    return offset;
  }

  void AddPipeline(std::vector<PipelineStep> steps, std::string name) {
    Pipeline pipeline;
    pipeline.id = static_cast<uint32_t>(pipelines_.size());
    pipeline.name = std::move(name);
    pipeline.steps = std::move(steps);
    pipelines_.push_back(std::move(pipeline));
    ExecStep run;
    run.kind = ExecStep::Kind::kRunPipeline;
    run.pipeline = pipelines_.back().id;
    out_->exec_steps.push_back(run);
  }

  // `downstream` are the steps that consume this operator's tuples, in dataflow order.
  void Lower(PhysicalOp& op, std::vector<PipelineStep> downstream) {
    auto prepend = [&](PipelineStep step) {
      std::vector<PipelineStep> steps;
      steps.push_back(step);
      for (PipelineStep& rest : downstream) {
        steps.push_back(std::move(rest));
      }
      return steps;
    };
    switch (op.kind) {
      case OpKind::kResultSink: {
        PipelineStep step{PipelineStep::Role::kOutput, &op, MakeTask(op, "output")};
        out_->out_base_offset = ReserveState(op.id, StateSlot::kOutBase);
        out_->out_count_offset = ReserveState(op.id, StateSlot::kOutCount);
        out_->output_row_size = op.output.size() * 8;
        ExecStep alloc;
        alloc.kind = ExecStep::Kind::kAllocBuffer;
        alloc.op = &op;
        alloc.buffer_bytes = std::max<uint64_t>(8, op.bound_rows * out_->output_row_size);
        alloc.state_offset0 = out_->out_base_offset;
        alloc.state_offset1 = out_->out_count_offset;
        out_->exec_steps.push_back(alloc);
        Lower(*op.child(0), prepend(step));
        return;
      }
      case OpKind::kTableScan: {
        PipelineStep step{PipelineStep::Role::kScanSource, &op, MakeTask(op, "scan")};
        AddPipeline(prepend(step), "scan " + op.table->name());
        return;
      }
      case OpKind::kFilter: {
        PipelineStep step{PipelineStep::Role::kFilter, &op, MakeTask(op, "filter")};
        Lower(*op.child(0), prepend(step));
        return;
      }
      case OpKind::kMap: {
        PipelineStep step{PipelineStep::Role::kMap, &op, MakeTask(op, "map")};
        Lower(*op.child(0), prepend(step));
        return;
      }
      case OpKind::kLimit: {
        PipelineStep step{PipelineStep::Role::kLimit, &op, MakeTask(op, "limit")};
        ReserveState(op.id, StateSlot::kLimitCounter);
        Lower(*op.child(0), prepend(step));
        return;
      }
      case OpKind::kHashJoin: {
        // Key/payload layout of the build entries decides the hash table's payload size.
        uint64_t payload_slots = op.build_keys.size();
        if (op.join_type == JoinType::kInner) {
          payload_slots += op.build_payload.size();
        }
        ExecStep create;
        create.kind = ExecStep::Kind::kCreateHashTable;
        create.op = &op;
        create.ht_capacity = std::max<uint64_t>(1, op.child(0)->bound_rows);
        create.ht_payload_bytes = payload_slots * 8;
        create.state_offset0 = ReserveState(op.id, StateSlot::kHashTable);
        out_->exec_steps.push_back(create);
        PipelineStep build{PipelineStep::Role::kBuild, &op, MakeTask(op, "build")};
        Lower(*op.child(0), {build});
        PipelineStep probe{PipelineStep::Role::kProbe, &op, MakeTask(op, "probe")};
        Lower(*op.child(1), prepend(probe));
        return;
      }
      case OpKind::kGroupBy: {
        GroupLayout layout = LayoutFor(op);
        ExecStep create;
        create.kind = ExecStep::Kind::kCreateHashTable;
        create.op = &op;
        create.ht_capacity = std::max<uint64_t>(1, op.child(0)->bound_rows);
        create.ht_payload_bytes = layout.payload_bytes;
        create.state_offset0 = ReserveState(op.id, StateSlot::kHashTable);
        out_->exec_steps.push_back(create);
        PipelineStep aggregate{PipelineStep::Role::kGroupByAggregate, &op,
                               MakeTask(op, "aggregate")};
        Lower(*op.child(0), {aggregate});
        PipelineStep scan{PipelineStep::Role::kGroupScanSource, &op, MakeTask(op, "scan groups")};
        AddPipeline(prepend(scan), "scan groups of " + op.label);
        return;
      }
      case OpKind::kGroupJoin: {
        GroupLayout layout = LayoutFor(op);
        ExecStep create;
        create.kind = ExecStep::Kind::kCreateHashTable;
        create.op = &op;
        create.ht_capacity = std::max<uint64_t>(1, op.child(0)->bound_rows);
        create.ht_payload_bytes = layout.payload_bytes;
        create.state_offset0 = ReserveState(op.id, StateSlot::kHashTable);
        out_->exec_steps.push_back(create);
        // Dataflow-graph operator fusion (paper Section 5.4): the fused operator's sections are
        // tracked as distinct tasks so samples map back to the original operators' roles.
        PipelineStep build{PipelineStep::Role::kGroupJoinBuild, &op,
                           MakeTask(op, "groupjoin-join(build)")};
        Lower(*op.child(0), {build});
        PipelineStep probe{PipelineStep::Role::kGroupJoinProbe, &op,
                           MakeTask(op, "groupjoin-join(probe)")};
        probe.task2 = MakeTask(op, "groupjoin-groupby");
        Lower(*op.child(1), {probe});
        PipelineStep scan{PipelineStep::Role::kGroupJoinScanSource, &op,
                          MakeTask(op, "scan groups")};
        AddPipeline(prepend(scan), "scan groups of " + op.label);
        return;
      }
      case OpKind::kSort: {
        uint32_t base_offset = ReserveState(op.id, StateSlot::kBufferBase);
        uint32_t count_offset = ReserveState(op.id, StateSlot::kBufferCount);
        uint64_t row_size = op.child(0)->output.size() * 8;
        ExecStep alloc;
        alloc.kind = ExecStep::Kind::kAllocBuffer;
        alloc.op = &op;
        alloc.buffer_bytes = std::max<uint64_t>(8, op.child(0)->bound_rows * row_size);
        alloc.state_offset0 = base_offset;
        alloc.state_offset1 = count_offset;
        out_->exec_steps.push_back(alloc);
        PipelineStep materialize{PipelineStep::Role::kSortMaterialize, &op,
                                 MakeTask(op, "materialize")};
        Lower(*op.child(0), {materialize});
        ExecStep sort;
        sort.kind = ExecStep::Kind::kSort;
        sort.op = &op;
        sort.state_offset0 = base_offset;
        sort.state_offset1 = count_offset;
        sort.sort_spec = 0;  // Filled by the codegen driver (needs the Runtime).
        out_->exec_steps.push_back(sort);
        sort_steps_.push_back(out_->exec_steps.size() - 1);
        PipelineStep scan{PipelineStep::Role::kSortScanSource, &op, MakeTask(op, "scan sorted")};
        AddPipeline(prepend(scan), "scan sorted of " + op.label);
        return;
      }
    }
    DFP_UNREACHABLE();
  }

 public:
  static GroupLayout LayoutFor(const PhysicalOp& op) {
    std::vector<ColumnType> key_types;
    std::vector<ColumnType> extra_types;
    if (op.kind == OpKind::kGroupBy) {
      for (int slot : op.group_keys) {
        key_types.push_back(op.child(0)->output[static_cast<size_t>(slot)].type);
      }
    } else {
      DFP_CHECK(op.kind == OpKind::kGroupJoin);
      for (int slot : op.build_keys) {
        key_types.push_back(op.child(0)->output[static_cast<size_t>(slot)].type);
      }
      for (int slot : op.build_payload) {
        extra_types.push_back(op.child(0)->output[static_cast<size_t>(slot)].type);
      }
    }
    return ComputeGroupLayout(key_types, extra_types, op.exprs);
  }

  std::vector<Pipeline> TakePipelines() { return std::move(pipelines_); }
  std::unordered_map<uint64_t, uint32_t> TakeStateOffsets() { return std::move(state_offsets_); }
  const std::vector<size_t>& sort_steps() const { return sort_steps_; }

 private:
  ProfilingSession* session_;
  CompiledQuery* out_;
  std::vector<Pipeline> pipelines_;
  std::unordered_map<uint64_t, uint32_t> state_offsets_;
  std::vector<size_t> sort_steps_;  // Indices of kSort exec steps (spec ids filled later).
};

// ---------------------------------------------------------------------------------------------
// Lowering step 2: one pipeline -> VIR.
// ---------------------------------------------------------------------------------------------

class PipelineEmitter {
 public:
  // In parallel mode pipeline functions take (state, morsel_begin, morsel_end) and every
  // cursor shared across morsels lives in the state block (see CodegenOptions::parallel).
  PipelineEmitter(Database& db, ProfilingSession* session, Pipeline& pipeline,
                  const std::unordered_map<uint64_t, uint32_t>& state_offsets,
                  const std::unordered_map<TaskId, uint32_t>* counter_offsets,
                  IrIdAllocator& ids, std::string fn_name, bool parallel,
                  const PlanLiterals* literals)
      : db_(db),
        session_(session),
        pipeline_(pipeline),
        state_offsets_(state_offsets),
        counter_offsets_(counter_offsets),
        parallel_(parallel),
        literals_(literals),
        fn_(std::move(fn_name), parallel ? 3 : 1),
        b_(&fn_, &ids) {
    if (session_ != nullptr) {
      b_.SetObserver([this](const IrInstr& instr) {
        // Lowering step 2's Tagging Dictionary log: Machine IR instruction -> active task.
        session_->dictionary().LinkInstr(instr.id, session_->task_tracker().Active());
      });
    }
  }

  IrFunction Take() { return std::move(fn_); }

  void Emit() {
    entry_block_ = b_.CreateBlock("entry");
    exit_block_ = b_.CreateBlock("exit");
    b_.SetInsertPoint(entry_block_);
    state_base_ = Value::Reg(0);
    {
      // The source task is active while the pipeline skeleton is generated.
      TaskScope scope(this, pipeline_.steps[0].task);
      EmitProlog();
      EmitSource();
    }
    b_.SetInsertPoint(exit_block_);
    {
      TaskScope scope(this, pipeline_.steps[0].task);
      EmitEpilog();
      b_.Ret();
    }
  }

 private:
  // RAII task-tracker scope (no-op without a session).
  class TaskScope {
   public:
    TaskScope(PipelineEmitter* emitter, TaskId task) : emitter_(emitter) {
      if (emitter_->session_ != nullptr && task != kNoTask) {
        emitter_->session_->task_tracker().Push(task);
        pushed_ = true;
      }
    }
    ~TaskScope() {
      if (pushed_) {
        emitter_->session_->task_tracker().Pop();
      }
    }

   private:
    PipelineEmitter* emitter_;
    bool pushed_ = false;
  };

  uint32_t StateOffset(OperatorId op, StateSlot purpose) const {
    auto it = state_offsets_.find(SlotKey(op, purpose));
    DFP_CHECK(it != state_offsets_.end());
    return it->second;
  }

  uint32_t LoadState(uint32_t offset, std::string comment = "") {
    return b_.Load(Opcode::kLoad8, state_base_, static_cast<int32_t>(offset),
                   std::move(comment));
  }

  void StoreState(uint32_t offset, Value value) {
    b_.Store(value, state_base_, static_cast<int32_t>(offset));
  }

  // --- Hash helpers (must match src/util/hash.h) ---

  uint32_t EmitKeyHash(const std::vector<SlotVal>& keys) {
    if (keys.empty()) {
      // Global aggregation: all tuples fall into one group under a fixed hash.
      return b_.Const(static_cast<int64_t>(0x517CC1B727220A95ull));
    }
    uint32_t hash = b_.EmitHash(keys[0].value);
    for (size_t i = 1; i < keys.size(); ++i) {
      uint32_t other = b_.EmitHash(keys[i].value);
      uint32_t rotated = b_.Binary(Opcode::kRotr, Value::Reg(hash), Value::Imm(17));
      uint32_t mixed = b_.Binary(Opcode::kMul, Value::Reg(other),
                                 Value::Imm(static_cast<int64_t>(kHashMultiplier)));
      hash = b_.Binary(Opcode::kXor, Value::Reg(rotated), Value::Reg(mixed));
    }
    return hash;
  }

  // Loads the directory head entry address for `hash` from a hoisted hash-table context.
  struct HtContext {
    uint32_t table = kNoVReg;
    uint32_t shift = kNoVReg;
    uint32_t directory = kNoVReg;
    uint32_t dir_count = kNoVReg;  // Only loaded for group scans.
  };

  uint32_t EmitDirectoryLookup(const HtContext& ht, uint32_t hash) {
    uint32_t index = b_.Binary(Opcode::kShr, Value::Reg(hash), Value::Reg(ht.shift));
    uint32_t offset = b_.Binary(Opcode::kShl, Value::Reg(index), Value::Imm(3));
    uint32_t slot = b_.Add(Value::Reg(ht.directory), Value::Reg(offset));
    return b_.Load(Opcode::kLoad8, Value::Reg(slot), 0, "directory lookup");
  }

  // --- Register Tagging (paper Section 4.2.5 / Listing 2) ---

  uint32_t TaggedCall(uint32_t callee, std::vector<Value> args, bool has_result, TaskId task,
                      const char* comment) {
    if (session_ != nullptr && session_->use_register_tagging() && task != kNoTask) {
      uint32_t saved = b_.GetTag();
      b_.AnnotateLast("save previous tag");
      int64_t tag = static_cast<int64_t>(task) + 1;
      if (session_->config().packed_tags) {
        // Multi-level chunking (Section 4.2.5): operator tag in the upper 32 bits.
        tag |= (static_cast<int64_t>(session_->dictionary().OperatorOf(task)) + 1) << 32;
      }
      b_.SetTag(Value::Imm(tag));
      b_.AnnotateLast("tag: " + session_->dictionary().task(task).name);
      uint32_t result = b_.Call(callee, std::move(args), has_result, comment);
      b_.SetTag(Value::Reg(saved));
      b_.AnnotateLast("restore tag");
      return result;
    }
    return b_.Call(callee, std::move(args), has_result, comment);
  }

  // --- Expression compilation (semantics mirror src/plan/eval.cc) ---

  Value Promote(SlotVal value, ColumnType to) {
    if (value.type == to ||
        (value.type == ColumnType::kDate && to == ColumnType::kInt64) ||
        (value.type == ColumnType::kInt64 && to == ColumnType::kDate) ||
        (value.type == ColumnType::kBool && to == ColumnType::kInt64)) {
      return value.value;
    }
    if (value.type == ColumnType::kInt64 && to == ColumnType::kDecimal) {
      return Value::Reg(b_.Mul(value.value, Value::Imm(kDecimalScale)));
    }
    if ((value.type == ColumnType::kInt64 || value.type == ColumnType::kDate ||
         value.type == ColumnType::kBool) &&
        to == ColumnType::kDouble) {
      return Value::Reg(b_.Unary(Opcode::kSiToFp, value.value, IrType::kF64));
    }
    if (value.type == ColumnType::kDecimal && to == ColumnType::kDouble) {
      uint32_t as_double = b_.Unary(Opcode::kSiToFp, value.value, IrType::kF64);
      return Value::Reg(b_.Binary(Opcode::kFDiv, Value::Reg(as_double),
                                  Value::ImmF(static_cast<double>(kDecimalScale)),
                                  IrType::kF64));
    }
    DFP_CHECK(false);
    return value.value;
  }

  // Literal slot of `expr` when compiling parameterized, kNoLiteralSlot otherwise (a
  // slot-less Value::Param degrades to a plain immediate).
  uint32_t LiteralSlot(const Expr& expr) const {
    return literals_ != nullptr ? literals_->SlotOf(expr) : kNoLiteralSlot;
  }

  SlotVal GenExpr(const Expr& expr, TupleContext& tuple) {
    switch (expr.kind) {
      case ExprKind::kColumnRef:
        return tuple.Get(expr.slot);
      case ExprKind::kLiteral: {
        const uint32_t slot = LiteralSlot(expr);
        if (expr.type == ColumnType::kDouble) {
          return {Value::Reg(b_.ConstF(std::bit_cast<double>(expr.literal), slot)),
                  ColumnType::kDouble};
        }
        return {Value::Reg(b_.Const(expr.literal, slot)), expr.type};
      }
      case ExprKind::kUnary: {
        SlotVal input = GenExpr(*expr.left, tuple);
        if (expr.un == UnOp::kNot) {
          return {Value::Reg(b_.CmpEq(input.value, Value::Imm(0))), ColumnType::kBool};
        }
        if (input.type == ColumnType::kDouble) {
          return {Value::Reg(b_.Unary(Opcode::kFNeg, input.value, IrType::kF64)),
                  ColumnType::kDouble};
        }
        return {Value::Reg(b_.Unary(Opcode::kNeg, input.value)), input.type};
      }
      case ExprKind::kBinary:
        return GenBinary(expr, tuple);
      case ExprKind::kCase:
        return GenCase(expr, tuple);
      case ExprKind::kLike: {
        SlotVal input = GenExpr(*expr.left, tuple);
        uint32_t pattern = db_.runtime().RegisterPattern(expr.pattern);
        // System-library call: deliberately NOT register-tagged (paper Table 2's
        // unattributed remainder). The pattern reaches the code as a registered id, so the
        // patchable site is the id-carrying call argument, not the string.
        uint32_t result = b_.Call(db_.runtime().str_like_fn(),
                                  {input.value, Value::Param(pattern, LiteralSlot(expr))},
                                  /*has_result=*/true, "like '" + expr.pattern + "'");
        return {Value::Reg(result), ColumnType::kBool};
      }
      case ExprKind::kInList: {
        SlotVal input = GenExpr(*expr.left, tuple);
        DFP_CHECK(!expr.list.empty());
        const uint32_t base = LiteralSlot(expr);
        uint32_t acc = b_.CmpEq(input.value, Value::Param(expr.list[0], base));
        for (size_t i = 1; i < expr.list.size(); ++i) {
          const uint32_t slot =
              base == kNoLiteralSlot ? kNoLiteralSlot : base + static_cast<uint32_t>(i);
          uint32_t other = b_.CmpEq(input.value, Value::Param(expr.list[i], slot));
          acc = b_.Binary(Opcode::kOr, Value::Reg(acc), Value::Reg(other));
        }
        return {Value::Reg(acc), ColumnType::kBool};
      }
      case ExprKind::kCast: {
        SlotVal input = GenExpr(*expr.left, tuple);
        return {Promote(input, expr.type), expr.type};
      }
      case ExprKind::kExtractYear: {
        // Civil-from-days (Hinnant) in straight-line integer arithmetic; our dates are all past
        // the epoch, so plain truncating division matches floor division throughout.
        SlotVal input = GenExpr(*expr.left, tuple);
        uint32_t z = b_.Add(input.value, Value::Imm(719468));
        uint32_t era = b_.Div(Value::Reg(z), Value::Imm(146097));
        uint32_t era_days = b_.Mul(Value::Reg(era), Value::Imm(146097));
        uint32_t doe = b_.Sub(Value::Reg(z), Value::Reg(era_days));
        uint32_t d1 = b_.Div(Value::Reg(doe), Value::Imm(1460));
        uint32_t d2 = b_.Div(Value::Reg(doe), Value::Imm(36524));
        uint32_t d3 = b_.Div(Value::Reg(doe), Value::Imm(146096));
        uint32_t t1 = b_.Sub(Value::Reg(doe), Value::Reg(d1));
        uint32_t t2 = b_.Add(Value::Reg(t1), Value::Reg(d2));
        uint32_t t3 = b_.Sub(Value::Reg(t2), Value::Reg(d3));
        uint32_t yoe = b_.Div(Value::Reg(t3), Value::Imm(365));
        uint32_t era_years = b_.Mul(Value::Reg(era), Value::Imm(400));
        uint32_t y = b_.Add(Value::Reg(yoe), Value::Reg(era_years));
        // doy = doe - (365*yoe + yoe/4 - yoe/100); mp = (5*doy + 2) / 153.
        uint32_t yd = b_.Mul(Value::Reg(yoe), Value::Imm(365));
        uint32_t leap = b_.Div(Value::Reg(yoe), Value::Imm(4));
        uint32_t cent = b_.Div(Value::Reg(yoe), Value::Imm(100));
        uint32_t base = b_.Add(Value::Reg(yd), Value::Reg(leap));
        uint32_t start = b_.Sub(Value::Reg(base), Value::Reg(cent));
        uint32_t doy = b_.Sub(Value::Reg(doe), Value::Reg(start));
        uint32_t scaled = b_.Mul(Value::Reg(doy), Value::Imm(5));
        uint32_t biased = b_.Add(Value::Reg(scaled), Value::Imm(2));
        uint32_t mp = b_.Div(Value::Reg(biased), Value::Imm(153));
        // January/February belong to the NEXT civil year of the March-based calendar.
        uint32_t is_jan_feb = b_.Binary(Opcode::kCmpGe, Value::Reg(mp), Value::Imm(10));
        uint32_t year = b_.Add(Value::Reg(y), Value::Reg(is_jan_feb));
        b_.AnnotateLast("extract year");
        return {Value::Reg(year), ColumnType::kInt64};
      }
      case ExprKind::kAggregate:
        DFP_CHECK(false);  // Aggregates are handled by the group-by emitters.
        return {};
    }
    DFP_UNREACHABLE();
  }

  SlotVal GenBinary(const Expr& expr, TupleContext& tuple) {
    const BinOp op = expr.bin;
    if (op == BinOp::kAnd || op == BinOp::kOr) {
      // Logic as a value: route through control flow for short-circuit semantics.
      uint32_t result = fn_.NewReg();
      uint32_t true_block = b_.CreateBlock("logic_true");
      uint32_t false_block = b_.CreateBlock("logic_false");
      uint32_t done = b_.CreateBlock("logic_done");
      EmitCondJump(expr, tuple, true_block, false_block, /*unconditional=*/true);
      b_.SetInsertPoint(true_block);
      b_.Copy(result, Value::Imm(1));
      b_.Br(done);
      b_.SetInsertPoint(false_block);
      b_.Copy(result, Value::Imm(0));
      b_.Br(done);
      b_.SetInsertPoint(done);
      return {Value::Reg(result), ColumnType::kBool};
    }
    SlotVal lhs = GenExpr(*expr.left, tuple);
    SlotVal rhs = GenExpr(*expr.right, tuple);
    if (IsComparison(op)) {
      return GenComparison(op, lhs, rhs);
    }
    const ColumnType result = expr.type;
    Value a = Promote(lhs, result);
    Value b = Promote(rhs, result);
    if (result == ColumnType::kDouble) {
      Opcode fop = op == BinOp::kAdd   ? Opcode::kFAdd
                   : op == BinOp::kSub ? Opcode::kFSub
                   : op == BinOp::kMul ? Opcode::kFMul
                                       : Opcode::kFDiv;
      DFP_CHECK(op == BinOp::kAdd || op == BinOp::kSub || op == BinOp::kMul ||
                op == BinOp::kDiv);
      return {Value::Reg(b_.Binary(fop, a, b, IrType::kF64)), ColumnType::kDouble};
    }
    switch (op) {
      case BinOp::kAdd:
        return {Value::Reg(b_.Add(a, b)), result};
      case BinOp::kSub:
        return {Value::Reg(b_.Sub(a, b)), result};
      case BinOp::kMul:
        if (result == ColumnType::kDecimal) {
          uint32_t product = b_.Mul(a, b);
          return {Value::Reg(b_.Div(Value::Reg(product), Value::Imm(kDecimalScale))), result};
        }
        return {Value::Reg(b_.Mul(a, b)), result};
      case BinOp::kDiv:
        if (result == ColumnType::kDecimal) {
          uint32_t scaled = b_.Mul(a, Value::Imm(kDecimalScale));
          return {Value::Reg(b_.Div(Value::Reg(scaled), b)), result};
        }
        return {Value::Reg(b_.Div(a, b)), result};
      case BinOp::kRem:
        return {Value::Reg(b_.Binary(Opcode::kRem, a, b)), result};
      default:
        DFP_CHECK(false);
        return {};
    }
  }

  SlotVal GenComparison(BinOp op, SlotVal lhs, SlotVal rhs) {
    // Strings: equality on interned payloads; ordering through the system library.
    if (lhs.type == ColumnType::kString) {
      if (op == BinOp::kEq) {
        return {Value::Reg(b_.CmpEq(lhs.value, rhs.value)), ColumnType::kBool};
      }
      if (op == BinOp::kNe) {
        return {Value::Reg(b_.CmpNe(lhs.value, rhs.value)), ColumnType::kBool};
      }
      uint32_t cmp = b_.Call(db_.runtime().str_cmp_fn(), {lhs.value, rhs.value},
                             /*has_result=*/true, "strcmp");
      return {Value::Reg(IntCompare(op, Value::Reg(cmp), Value::Imm(0))), ColumnType::kBool};
    }
    if (lhs.type == ColumnType::kDouble || rhs.type == ColumnType::kDouble) {
      Value a = Promote(lhs, ColumnType::kDouble);
      Value b = Promote(rhs, ColumnType::kDouble);
      Opcode fop = op == BinOp::kEq   ? Opcode::kFCmpEq
                   : op == BinOp::kNe ? Opcode::kFCmpNe
                   : op == BinOp::kLt ? Opcode::kFCmpLt
                   : op == BinOp::kLe ? Opcode::kFCmpLe
                   : op == BinOp::kGt ? Opcode::kFCmpGt
                                      : Opcode::kFCmpGe;
      return {Value::Reg(b_.Binary(fop, a, b, IrType::kF64)), ColumnType::kBool};
    }
    ColumnType common = lhs.type == rhs.type
                            ? lhs.type
                            : BinaryResultType(BinOp::kAdd, lhs.type, rhs.type);
    Value a = Promote(lhs, common);
    Value b = Promote(rhs, common);
    return {Value::Reg(IntCompare(op, a, b)), ColumnType::kBool};
  }

  uint32_t IntCompare(BinOp op, Value a, Value b) {
    Opcode opcode = op == BinOp::kEq   ? Opcode::kCmpEq
                    : op == BinOp::kNe ? Opcode::kCmpNe
                    : op == BinOp::kLt ? Opcode::kCmpLt
                    : op == BinOp::kLe ? Opcode::kCmpLe
                    : op == BinOp::kGt ? Opcode::kCmpGt
                                       : Opcode::kCmpGe;
    return b_.Binary(opcode, a, b);
  }

  SlotVal GenCase(const Expr& expr, TupleContext& tuple) {
    uint32_t result = fn_.NewReg();
    uint32_t done = b_.CreateBlock("case_done");
    auto snapshot = tuple.Snapshot();
    for (const auto& [cond, value] : expr.whens) {
      uint32_t then_block = b_.CreateBlock("case_then");
      uint32_t next_block = b_.CreateBlock("case_next");
      EmitCondJump(*cond, tuple, then_block, next_block, /*unconditional=*/false);
      b_.SetInsertPoint(then_block);
      tuple.Restore(snapshot);
      SlotVal v = GenExpr(*value, tuple);
      b_.Copy(result, v.value, expr.type == ColumnType::kDouble ? IrType::kF64 : IrType::kI64);
      b_.Br(done);
      b_.SetInsertPoint(next_block);
      tuple.Restore(snapshot);
    }
    SlotVal v = GenExpr(*expr.else_value, tuple);
    b_.Copy(result, v.value, expr.type == ColumnType::kDouble ? IrType::kF64 : IrType::kI64);
    b_.Br(done);
    b_.SetInsertPoint(done);
    tuple.Restore(snapshot);
    return {Value::Reg(result), expr.type};
  }

  // Emits a conditional jump on `expr` with short-circuit AND/OR. `unconditional` means the
  // current emission point is reached on every evaluation of the predicate (so tuple-cache
  // effects may persist); conditionally evaluated legs snapshot and restore the cache.
  void EmitCondJump(const Expr& expr, TupleContext& tuple, uint32_t if_true, uint32_t if_false,
                    bool unconditional) {
    if (expr.kind == ExprKind::kBinary && expr.bin == BinOp::kAnd) {
      uint32_t mid = b_.CreateBlock("and_rhs");
      EmitCondJump(*expr.left, tuple, mid, if_false, unconditional);
      b_.SetInsertPoint(mid);
      EmitCondJump(*expr.right, tuple, if_true, if_false, /*unconditional=*/false);
      return;
    }
    if (expr.kind == ExprKind::kBinary && expr.bin == BinOp::kOr) {
      uint32_t mid = b_.CreateBlock("or_rhs");
      EmitCondJump(*expr.left, tuple, if_true, mid, unconditional);
      b_.SetInsertPoint(mid);
      EmitCondJump(*expr.right, tuple, if_true, if_false, /*unconditional=*/false);
      return;
    }
    if (expr.kind == ExprKind::kUnary && expr.un == UnOp::kNot) {
      EmitCondJump(*expr.left, tuple, if_false, if_true, unconditional);
      return;
    }
    if (unconditional) {
      SlotVal cond = GenExpr(expr, tuple);
      b_.CondBr(cond.value, if_true, if_false);
      return;
    }
    auto snapshot = tuple.Snapshot();
    SlotVal cond = GenExpr(expr, tuple);
    b_.CondBr(cond.value, if_true, if_false);
    tuple.Restore(std::move(snapshot));
  }

  // --- Pipeline skeleton ---

  void EmitProlog() {
    // Hoist loop-invariant state (hash-table headers, buffer bases, counters) into registers.
    step_states_.resize(pipeline_.steps.size());
    for (size_t i = 0; i < pipeline_.steps.size(); ++i) {
      const PipelineStep& step = pipeline_.steps[i];
      TaskScope scope(this, step.task);
      StepState& state = step_states_[i];
      switch (step.role) {
        case PipelineStep::Role::kBuild:
        case PipelineStep::Role::kProbe:
        case PipelineStep::Role::kGroupByAggregate:
        case PipelineStep::Role::kGroupJoinBuild:
        case PipelineStep::Role::kGroupJoinProbe:
        case PipelineStep::Role::kGroupScanSource:
        case PipelineStep::Role::kGroupJoinScanSource: {
          uint32_t offset = StateOffset(step.op->id, StateSlot::kHashTable);
          state.ht.table = LoadState(offset, "hash table of " + StepLabel(step));
          state.ht.shift = b_.Load(Opcode::kLoad8, Value::Reg(state.ht.table),
                                   static_cast<int32_t>(kHtDirShift));
          state.ht.directory = b_.Load(Opcode::kLoad8, Value::Reg(state.ht.table),
                                       static_cast<int32_t>(kHtDirBase));
          if (step.role == PipelineStep::Role::kGroupScanSource ||
              step.role == PipelineStep::Role::kGroupJoinScanSource) {
            state.ht.dir_count = b_.Load(Opcode::kLoad8, Value::Reg(state.ht.table),
                                         static_cast<int32_t>(kHtDirCount));
          }
          break;
        }
        case PipelineStep::Role::kSortMaterialize: {
          state.buf_base = LoadState(StateOffset(step.op->id, StateSlot::kBufferBase));
          if (!parallel_) {
            state.cursor = b_.Const(0);
          }
          break;
        }
        case PipelineStep::Role::kSortScanSource: {
          state.buf_base = LoadState(StateOffset(step.op->id, StateSlot::kBufferBase));
          uint32_t count = LoadState(StateOffset(step.op->id, StateSlot::kBufferCount));
          if (step.op->limit >= 0) {
            uint32_t over = b_.Binary(Opcode::kCmpGt, Value::Reg(count),
                                      Value::Imm(step.op->limit));
            count = b_.Select(Value::Reg(over), Value::Imm(step.op->limit), Value::Reg(count));
          }
          state.row_count = count;
          break;
        }
        case PipelineStep::Role::kLimit:
          if (!parallel_) {
            state.cursor = b_.Const(0);
          }
          break;
        case PipelineStep::Role::kOutput: {
          state.buf_base = LoadState(StateOffset(step.op->id, StateSlot::kOutBase));
          if (!parallel_) {
            state.cursor = b_.Const(0);
          }
          break;
        }
        default:
          break;
      }
      if (CountingEnabled(step) && !parallel_) {
        state.tuple_counter = b_.Const(0);
        b_.AnnotateLast("tuple counter");
      }
    }
  }

  void EmitEpilog() {
    if (parallel_) {
      // Shared cursors and counters are updated in the state block tuple by tuple (modeled
      // atomic fetch-adds); there is nothing to write back per morsel.
      return;
    }
    // Store live counters back to the state block.
    for (size_t i = 0; i < pipeline_.steps.size(); ++i) {
      const PipelineStep& step = pipeline_.steps[i];
      TaskScope scope(this, step.task);
      const StepState& state = step_states_[i];
      if (CountingEnabled(step)) {
        StoreState(counter_offsets_->at(step.task), Value::Reg(state.tuple_counter));
      }
      switch (step.role) {
        case PipelineStep::Role::kSortMaterialize:
          StoreState(StateOffset(step.op->id, StateSlot::kBufferCount),
                     Value::Reg(state.cursor));
          break;
        case PipelineStep::Role::kOutput:
          StoreState(StateOffset(step.op->id, StateSlot::kOutCount), Value::Reg(state.cursor));
          break;
        default:
          break;
      }
    }
  }

  std::string StepLabel(const PipelineStep& step) const {
    return step.op->label.empty() ? OpKindName(step.op->kind) : step.op->label;
  }

  void EmitSource() {
    const PipelineStep& source = pipeline_.steps[0];
    switch (source.role) {
      case PipelineStep::Role::kScanSource:
        EmitTableScan(source);
        break;
      case PipelineStep::Role::kGroupScanSource:
      case PipelineStep::Role::kGroupJoinScanSource:
        EmitGroupScan(source);
        break;
      case PipelineStep::Role::kSortScanSource:
        EmitSortScan(source);
        break;
      default:
        DFP_CHECK(false);
    }
  }

  void EmitTableScan(const PipelineStep& step) {
    const Table& table = *step.op->table;
    uint32_t head = b_.CreateBlock("loopTuples");
    uint32_t body = b_.CreateBlock("scanBody");
    uint32_t cont = b_.CreateBlock("contScan");
    uint32_t tid;
    if (parallel_) {
      // The morsel bounds arrive in the argument registers: tid runs [begin, end).
      tid = 1;  // morsel_begin, advanced in place.
    } else {
      tid = b_.Const(0);
      b_.AnnotateLast("tuple id");
    }
    b_.Br(head);

    b_.SetInsertPoint(head);
    uint32_t more =
        parallel_ ? b_.CmpLt(Value::Reg(tid), Value::Reg(2))
                  : b_.CmpLt(Value::Reg(tid),
                             Value::Imm(static_cast<int64_t>(table.row_count())));
    b_.CondBr(Value::Reg(more), body, exit_block_);

    b_.SetInsertPoint(body);
    // Lazy column loaders: address = column base (immediate) + tid * width.
    std::vector<TupleContext::Loader> loaders;
    for (size_t c = 0; c < table.schema().columns.size(); ++c) {
      const ColumnType type = table.schema().columns[c].type;
      const VAddr base = table.column_base(c);
      const std::string column_name = table.schema().columns[c].name;
      const TaskId task = step.task;
      loaders.push_back([this, type, base, tid, column_name, task]() -> SlotVal {
        // Column loads belong to the scan task even when triggered while generating a consumer.
        TaskScope scope(this, task);
        uint32_t width = ColumnWidth(type);
        uint32_t offset =
            width == 1 ? tid
                       : b_.Binary(Opcode::kShl, Value::Reg(tid),
                                   Value::Imm(width == 4 ? 2 : 3));
        uint32_t addr = b_.Add(Value::Imm(static_cast<int64_t>(base)), Value::Reg(offset));
        uint32_t value = b_.Load(LoadOpcodeFor(type), Value::Reg(addr), 0, column_name);
        return SlotVal{Value::Reg(value), type};
      });
    }
    TupleContext tuple(std::move(loaders));
    CountTuple(0);
    continue_stack_.push_back(cont);
    EmitSteps(1, tuple);
    continue_stack_.pop_back();
    b_.Br(cont);

    b_.SetInsertPoint(cont);
    b_.Assign(tid, Opcode::kAdd, Value::Reg(tid), Value::Imm(1));
    b_.Br(head);
  }

  void EmitGroupScan(const PipelineStep& step) {
    const bool is_groupjoin = step.role == PipelineStep::Role::kGroupJoinScanSource;
    const StepState& state = step_states_[0];
    GroupLayout layout = PlanLowering::LayoutFor(*step.op);

    uint32_t slot_head = b_.CreateBlock("loopSlots");
    uint32_t slot_body = b_.CreateBlock("slotBody");
    uint32_t chain_head = b_.CreateBlock("loopChain");
    uint32_t chain_body = b_.CreateBlock("chainBody");
    uint32_t chain_cont = b_.CreateBlock("contChain");
    uint32_t slot_cont = b_.CreateBlock("contSlots");

    uint32_t slot_index = b_.Const(0);
    uint32_t entry = b_.Const(0);
    b_.Br(slot_head);

    b_.SetInsertPoint(slot_head);
    uint32_t more = b_.CmpLt(Value::Reg(slot_index), Value::Reg(state.ht.dir_count));
    b_.CondBr(Value::Reg(more), slot_body, exit_block_);

    b_.SetInsertPoint(slot_body);
    uint32_t offset = b_.Binary(Opcode::kShl, Value::Reg(slot_index), Value::Imm(3));
    uint32_t slot_addr = b_.Add(Value::Reg(state.ht.directory), Value::Reg(offset));
    b_.Assign(entry, Opcode::kLoad8, Value::Reg(slot_addr), Value::None());
    b_.Br(chain_head);

    b_.SetInsertPoint(chain_head);
    uint32_t is_null = b_.CmpEq(Value::Reg(entry), Value::Imm(0));
    b_.CondBr(Value::Reg(is_null), slot_cont, chain_body);

    b_.SetInsertPoint(chain_body);
    // Tuple loaders over the group entry. GroupBy outputs its keys followed by the aggregates;
    // GroupJoin outputs its build payload followed by the aggregates (its keys are only output
    // if they are part of the payload).
    std::vector<TupleContext::Loader> loaders;
    if (!is_groupjoin) {
      for (size_t k = 0; k < layout.key_types.size(); ++k) {
        const ColumnType type = layout.key_types[k];
        const int64_t key_offset = kHtEntryPayload + layout.KeyOffset(k);
        const TaskId task = step.task;
        loaders.push_back([this, type, entry, key_offset, task]() -> SlotVal {
          TaskScope scope(this, task);
          uint32_t value = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                   static_cast<int32_t>(key_offset), "group key");
          return SlotVal{Value::Reg(value), type};
        });
      }
    }
    if (is_groupjoin) {
      for (size_t e = 0; e < layout.extra_types.size(); ++e) {
        const ColumnType type = layout.extra_types[e];
        const int64_t extra_offset = kHtEntryPayload + layout.ExtraOffset(e);
        const TaskId task = step.task;
        loaders.push_back([this, type, entry, extra_offset, task]() -> SlotVal {
          TaskScope scope(this, task);
          uint32_t value = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                   static_cast<int32_t>(extra_offset), "group payload");
          return SlotVal{Value::Reg(value), type};
        });
      }
    }
    for (const AggSlot& agg : layout.aggs) {
      const TaskId task = step.task;
      loaders.push_back([this, agg, entry, task]() -> SlotVal {
        TaskScope scope(this, task);
        return FinalizeAggregate(agg, entry);
      });
    }
    TupleContext tuple(std::move(loaders));
    CountTuple(0);
    continue_stack_.push_back(chain_cont);
    EmitSteps(1, tuple);
    continue_stack_.pop_back();
    b_.Br(chain_cont);

    b_.SetInsertPoint(chain_cont);
    b_.Assign(entry, Opcode::kLoad8, Value::Reg(entry), Value::None());
    fn_.block(chain_cont).instrs.back().disp = static_cast<int32_t>(kHtEntryNext);
    b_.Br(chain_head);

    b_.SetInsertPoint(slot_cont);
    b_.Assign(slot_index, Opcode::kAdd, Value::Reg(slot_index), Value::Imm(1));
    b_.Br(slot_head);
  }

  SlotVal FinalizeAggregate(const AggSlot& agg, uint32_t entry) {
    switch (agg.op) {
      case AggOp::kSum:
      case AggOp::kMin:
      case AggOp::kMax: {
        uint32_t value = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                 static_cast<int32_t>(kHtEntryPayload + agg.offset),
                                 "aggregate");
        return {Value::Reg(value), agg.out_type};
      }
      case AggOp::kCount:
      case AggOp::kCountStar: {
        uint32_t value = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                 static_cast<int32_t>(kHtEntryPayload + agg.offset), "count");
        return {Value::Reg(value), ColumnType::kInt64};
      }
      case AggOp::kAvg: {
        uint32_t sum = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                               static_cast<int32_t>(kHtEntryPayload + agg.offset), "avg sum");
        uint32_t count = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                 static_cast<int32_t>(kHtEntryPayload + agg.offset2),
                                 "avg count");
        Value sum_double = Promote({Value::Reg(sum), agg.in_type == ColumnType::kDouble
                                                         ? ColumnType::kDouble
                                                         : agg.in_type},
                                   ColumnType::kDouble);
        uint32_t count_double = b_.Unary(Opcode::kSiToFp, Value::Reg(count), IrType::kF64);
        uint32_t avg = b_.Binary(Opcode::kFDiv, sum_double, Value::Reg(count_double),
                                 IrType::kF64);
        return {Value::Reg(avg), ColumnType::kDouble};
      }
    }
    DFP_UNREACHABLE();
  }

  void EmitSortScan(const PipelineStep& step) {
    const StepState& state = step_states_[0];
    const uint64_t row_size = step.op->child(0)->output.size() * 8;
    uint32_t head = b_.CreateBlock("loopRows");
    uint32_t body = b_.CreateBlock("rowBody");
    uint32_t cont = b_.CreateBlock("contRows");
    uint32_t row = b_.Const(0);
    b_.Br(head);

    b_.SetInsertPoint(head);
    uint32_t more = b_.CmpLt(Value::Reg(row), Value::Reg(state.row_count));
    b_.CondBr(Value::Reg(more), body, exit_block_);

    b_.SetInsertPoint(body);
    uint32_t row_offset = b_.Mul(Value::Reg(row), Value::Imm(static_cast<int64_t>(row_size)));
    uint32_t row_addr = b_.Add(Value::Reg(state.buf_base), Value::Reg(row_offset));
    std::vector<TupleContext::Loader> loaders;
    for (size_t c = 0; c < step.op->output.size(); ++c) {
      const ColumnType type = step.op->output[c].type;
      const int32_t disp = static_cast<int32_t>(c * 8);
      const TaskId task = step.task;
      loaders.push_back([this, type, row_addr, disp, task]() -> SlotVal {
        TaskScope scope(this, task);
        uint32_t value = b_.Load(Opcode::kLoad8, Value::Reg(row_addr), disp, "sorted column");
        return SlotVal{Value::Reg(value), type};
      });
    }
    TupleContext tuple(std::move(loaders));
    CountTuple(0);
    continue_stack_.push_back(cont);
    EmitSteps(1, tuple);
    continue_stack_.pop_back();
    b_.Br(cont);

    b_.SetInsertPoint(cont);
    b_.Assign(row, Opcode::kAdd, Value::Reg(row), Value::Imm(1));
    b_.Br(head);
  }

  // --- Consumer steps ---

  void EmitSteps(size_t index, TupleContext& tuple) {
    DFP_CHECK(index < pipeline_.steps.size());
    const PipelineStep& step = pipeline_.steps[index];
    TaskScope scope(this, step.task);
    switch (step.role) {
      case PipelineStep::Role::kFilter: {
        uint32_t pass = b_.CreateBlock("filterPass");
        EmitCondJump(*step.op->exprs[0], tuple, pass, continue_stack_.back(),
                     /*unconditional=*/true);
        b_.SetInsertPoint(pass);
        CountTuple(index);
        EmitSteps(index + 1, tuple);
        return;
      }
      case PipelineStep::Role::kMap: {
        CountTuple(index);
        if (step.op->projecting) {
          std::vector<TupleContext::Loader> loaders;
          for (const ExprPtr& expr : step.op->exprs) {
            SlotVal value = GenExpr(*expr, tuple);  // Projections are cheap refs; eager is fine.
            loaders.push_back([value] { return value; });
          }
          tuple.Replace(std::move(loaders));
        } else {
          for (const ExprPtr& expr : step.op->exprs) {
            tuple.AppendValue(GenExpr(*expr, tuple));
          }
        }
        EmitSteps(index + 1, tuple);
        return;
      }
      case PipelineStep::Role::kLimit:
        EmitLimit(index, tuple);
        return;
      case PipelineStep::Role::kBuild:
        EmitJoinBuild(index, tuple);
        return;
      case PipelineStep::Role::kProbe:
        EmitJoinProbe(index, tuple);
        return;
      case PipelineStep::Role::kGroupByAggregate:
        EmitGroupAggregate(index, tuple, /*is_groupjoin_probe=*/false);
        return;
      case PipelineStep::Role::kGroupJoinBuild:
        EmitGroupJoinBuild(index, tuple);
        return;
      case PipelineStep::Role::kGroupJoinProbe:
        EmitGroupAggregate(index, tuple, /*is_groupjoin_probe=*/true);
        return;
      case PipelineStep::Role::kSortMaterialize:
      case PipelineStep::Role::kOutput:
        EmitMaterialize(index, tuple);
        return;
      default:
        DFP_CHECK(false);
    }
  }

  void EmitLimit(size_t index, TupleContext& tuple) {
    const PipelineStep& step = pipeline_.steps[index];
    StepState& state = step_states_[index];
    if (parallel_) {
      // The limit counter is shared across morsels: load it from the state block, check, and
      // publish the increment (modeled atomic fetch-add) before the downstream steps run.
      const uint32_t offset = StateOffset(step.op->id, StateSlot::kLimitCounter);
      uint32_t cursor = LoadState(offset, "shared limit counter");
      uint32_t over = b_.Binary(Opcode::kCmpGe, Value::Reg(cursor),
                                Value::Imm(step.op->limit));
      uint32_t go = b_.CreateBlock("limitPass");
      b_.CondBr(Value::Reg(over), exit_block_, go);
      b_.SetInsertPoint(go);
      uint32_t next = b_.Add(Value::Reg(cursor), Value::Imm(1));
      StoreState(offset, Value::Reg(next));
      CountTuple(index);
      EmitSteps(index + 1, tuple);
      return;
    }
    uint32_t over = b_.Binary(Opcode::kCmpGe, Value::Reg(state.cursor),
                              Value::Imm(step.op->limit));
    uint32_t go = b_.CreateBlock("limitPass");
    // Limit reached: leave the whole pipeline.
    b_.CondBr(Value::Reg(over), exit_block_, go);
    b_.SetInsertPoint(go);
    b_.Assign(state.cursor, Opcode::kAdd, Value::Reg(state.cursor), Value::Imm(1));
    CountTuple(index);
    EmitSteps(index + 1, tuple);
  }

  void EmitMaterialize(size_t index, TupleContext& tuple) {
    const PipelineStep& step = pipeline_.steps[index];
    StepState& state = step_states_[index];
    const size_t columns = step.role == PipelineStep::Role::kOutput
                               ? step.op->output.size()
                               : step.op->child(0)->output.size();
    CountTuple(index);
    uint32_t cursor;
    if (parallel_) {
      // Claim an output slot from the shared counter (modeled atomic fetch-add): the claim is
      // published before the row is written, so concurrent morsels never reuse a slot.
      const uint32_t count_offset =
          step.role == PipelineStep::Role::kOutput
              ? StateOffset(step.op->id, StateSlot::kOutCount)
              : StateOffset(step.op->id, StateSlot::kBufferCount);
      cursor = LoadState(count_offset, "claim output slot");
      uint32_t next = b_.Add(Value::Reg(cursor), Value::Imm(1));
      StoreState(count_offset, Value::Reg(next));
    } else {
      cursor = state.cursor;
    }
    uint32_t row_offset = b_.Mul(Value::Reg(cursor),
                                 Value::Imm(static_cast<int64_t>(columns * 8)));
    uint32_t row_addr = b_.Add(Value::Reg(state.buf_base), Value::Reg(row_offset));
    for (size_t c = 0; c < columns; ++c) {
      SlotVal value = tuple.Get(static_cast<int>(c));
      b_.Store(value.value, Value::Reg(row_addr),
               static_cast<int32_t>(c * 8), "materialize column");
    }
    if (!parallel_) {
      b_.Assign(state.cursor, Opcode::kAdd, Value::Reg(state.cursor), Value::Imm(1));
    }
  }

  void EmitJoinBuild(size_t index, TupleContext& tuple) {
    const PipelineStep& step = pipeline_.steps[index];
    const PhysicalOp& op = *step.op;
    const StepState& state = step_states_[index];
    CountTuple(index);
    std::vector<SlotVal> keys;
    for (int slot : op.build_keys) {
      keys.push_back(tuple.Get(slot));
    }
    uint32_t hash = EmitKeyHash(keys);
    uint32_t entry = TaggedCall(InsertFn(),
                                {Value::Reg(state.ht.table), Value::Reg(hash)},
                                /*has_result=*/true, step.task, "insert build tuple");
    int32_t offset = static_cast<int32_t>(kHtEntryPayload);
    for (const SlotVal& key : keys) {
      b_.Store(key.value, Value::Reg(entry), offset, "store key");
      offset += 8;
    }
    if (op.join_type == JoinType::kInner) {
      for (int slot : op.build_payload) {
        SlotVal value = tuple.Get(slot);
        b_.Store(value.value, Value::Reg(entry), offset, "store payload");
        offset += 8;
      }
    }
  }

  void EmitJoinProbe(size_t index, TupleContext& tuple) {
    const PipelineStep& step = pipeline_.steps[index];
    const PhysicalOp& op = *step.op;
    const StepState& state = step_states_[index];

    std::vector<SlotVal> keys;
    for (int slot : op.probe_keys) {
      keys.push_back(tuple.Get(slot));
    }
    uint32_t hash = EmitKeyHash(keys);
    uint32_t entry = fn_.NewReg();
    b_.Copy(entry, Value::Reg(EmitDirectoryLookup(state.ht, hash)));

    uint32_t chain_head = b_.CreateBlock("loopHashChain");
    uint32_t chain_body = b_.CreateBlock("chainCompare");
    uint32_t match = b_.CreateBlock("chainMatch");
    uint32_t advance = b_.CreateBlock("contProbe");
    const uint32_t outer_cont = continue_stack_.back();

    // Anti joins track whether any match was seen.
    uint32_t found = kNoVReg;
    uint32_t after_chain = kNoBlock;
    if (op.join_type == JoinType::kAnti) {
      found = b_.Const(0);
      b_.AnnotateLast("anti-join match flag");
      after_chain = b_.CreateBlock("antiCheck");
    }
    const uint32_t chain_exit = op.join_type == JoinType::kAnti ? after_chain : outer_cont;
    b_.Br(chain_head);

    b_.SetInsertPoint(chain_head);
    uint32_t is_null = b_.CmpEq(Value::Reg(entry), Value::Imm(0));
    b_.CondBr(Value::Reg(is_null), chain_exit, chain_body);

    b_.SetInsertPoint(chain_body);
    uint32_t entry_hash = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                  static_cast<int32_t>(kHtEntryHash), "entry hash");
    uint32_t hash_eq = b_.CmpEq(Value::Reg(entry_hash), Value::Reg(hash));
    b_.CondBr(Value::Reg(hash_eq), match, advance);

    b_.SetInsertPoint(match);
    // Compare the stored keys (hash equality is not key equality).
    for (size_t k = 0; k < keys.size(); ++k) {
      uint32_t stored = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                static_cast<int32_t>(kHtEntryPayload + k * 8), "stored key");
      uint32_t equal = b_.CmpEq(Value::Reg(stored), keys[k].value);
      uint32_t next_check = b_.CreateBlock("keyEqual");
      b_.CondBr(Value::Reg(equal), next_check, advance);
      b_.SetInsertPoint(next_check);
    }
    switch (op.join_type) {
      case JoinType::kInner: {
        // Extend the tuple with build payload loaders reading from the matched entry. The tuple
        // is not consulted again after the consume chain below returns, so no restore is needed.
        for (size_t p = 0; p < op.build_payload.size(); ++p) {
          const int build_slot = op.build_payload[p];
          const ColumnType type =
              op.child(0)->output[static_cast<size_t>(build_slot)].type;
          const int32_t disp =
              static_cast<int32_t>(kHtEntryPayload + (op.build_keys.size() + p) * 8);
          const TaskId task = step.task;
          tuple.Append([this, type, entry, disp, task]() -> SlotVal {
            TaskScope scope(this, task);
            uint32_t value = b_.Load(Opcode::kLoad8, Value::Reg(entry), disp, "build payload");
            return SlotVal{Value::Reg(value), type};
          });
        }
        CountTuple(index);
        continue_stack_.push_back(advance);
        EmitSteps(index + 1, tuple);
        continue_stack_.pop_back();
        b_.Br(advance);
        break;
      }
      case JoinType::kSemi: {
        CountTuple(index);
        EmitSteps(index + 1, tuple);
        b_.Br(outer_cont);  // Emit at most once per probe tuple.
        break;
      }
      case JoinType::kAnti:
        b_.Copy(found, Value::Imm(1));
        b_.Br(outer_cont);  // A match disqualifies the tuple; stop walking.
        break;
    }

    b_.SetInsertPoint(advance);
    b_.Assign(entry, Opcode::kLoad8, Value::Reg(entry), Value::None());
    fn_.block(advance).instrs.back().disp = static_cast<int32_t>(kHtEntryNext);
    b_.Br(chain_head);

    if (op.join_type == JoinType::kAnti) {
      b_.SetInsertPoint(after_chain);
      uint32_t no_match = b_.CmpEq(Value::Reg(found), Value::Imm(0));
      uint32_t emit_block = b_.CreateBlock("antiEmit");
      b_.CondBr(Value::Reg(no_match), emit_block, outer_cont);
      b_.SetInsertPoint(emit_block);
      CountTuple(index);
      EmitSteps(index + 1, tuple);
      // Falls through to the outer continue via the caller's closing branch... but the caller
      // closes the SOURCE body block; here we must close explicitly.
      b_.Br(outer_cont);
      // Park the builder in a dead block so the caller's closing `br` lands harmlessly.
      b_.SetInsertPoint(b_.CreateBlock("probeDone"));
    }
    if (op.join_type == JoinType::kInner || op.join_type == JoinType::kSemi) {
      // The caller will emit `br` to its continue target after we return; park the builder in a
      // fresh dead block so that branch is unreachable but well-formed.
      b_.SetInsertPoint(b_.CreateBlock("probeDone"));
    }
  }

  void EmitGroupJoinBuild(size_t index, TupleContext& tuple) {
    const PipelineStep& step = pipeline_.steps[index];
    const PhysicalOp& op = *step.op;
    const StepState& state = step_states_[index];
    GroupLayout layout = PlanLowering::LayoutFor(op);
    CountTuple(index);
    std::vector<SlotVal> keys;
    for (int slot : op.build_keys) {
      keys.push_back(tuple.Get(slot));
    }
    uint32_t hash = EmitKeyHash(keys);
    uint32_t entry = TaggedCall(InsertFn(),
                                {Value::Reg(state.ht.table), Value::Reg(hash)},
                                /*has_result=*/true, step.task, "insert group");
    for (size_t k = 0; k < keys.size(); ++k) {
      b_.Store(keys[k].value, Value::Reg(entry),
               static_cast<int32_t>(kHtEntryPayload + layout.KeyOffset(k)), "store group key");
    }
    for (size_t p = 0; p < op.build_payload.size(); ++p) {
      SlotVal value = tuple.Get(op.build_payload[p]);
      b_.Store(value.value, Value::Reg(entry),
               static_cast<int32_t>(kHtEntryPayload + layout.ExtraOffset(p)),
               "store group payload");
    }
    // Aggregate slots start at zero (fresh memory); min/max get their init on first update via
    // the count==0 check... GroupJoin aggregates use sum/count/avg only; enforced here.
    for (const AggSlot& agg : layout.aggs) {
      DFP_CHECK(agg.op == AggOp::kSum || agg.op == AggOp::kCount ||
                agg.op == AggOp::kCountStar || agg.op == AggOp::kAvg);
    }
  }

  // Shared by GroupBy's input side and GroupJoin's probe side. For GroupBy, a missing group is
  // inserted; for GroupJoin-probe, a missing group means no join partner and the tuple is
  // dropped.
  void EmitGroupAggregate(size_t index, TupleContext& tuple, bool is_groupjoin_probe) {
    const PipelineStep& step = pipeline_.steps[index];
    const PhysicalOp& op = *step.op;
    const StepState& state = step_states_[index];
    GroupLayout layout = PlanLowering::LayoutFor(op);
    CountTuple(index);

    std::vector<SlotVal> keys;
    const std::vector<int>& key_slots = is_groupjoin_probe ? op.probe_keys : op.group_keys;
    for (int slot : key_slots) {
      keys.push_back(tuple.Get(slot));
    }
    // Aggregate inputs are computed up front (they are needed on both the update and the
    // insert path). This is where expensive per-tuple expressions (e.g. the paper's chained
    // divisions) are generated — attributed to the aggregation task.
    TaskId agg_task = is_groupjoin_probe ? step.task2 : step.task;
    std::vector<SlotVal> inputs(layout.aggs.size());
    {
      TaskScope agg_scope(this, agg_task);
      for (size_t a = 0; a < layout.aggs.size(); ++a) {
        if (op.exprs[a]->left != nullptr) {
          inputs[a] = GenExpr(*op.exprs[a]->left, tuple);
        }
      }
    }

    uint32_t hash = EmitKeyHash(keys);
    uint32_t entry = fn_.NewReg();
    b_.Copy(entry, Value::Reg(EmitDirectoryLookup(state.ht, hash)));

    uint32_t chain_head = b_.CreateBlock("findGroup");
    uint32_t chain_body = b_.CreateBlock("groupCompare");
    uint32_t found_block = b_.CreateBlock("groupFound");
    uint32_t advance = b_.CreateBlock("contGroupChain");
    uint32_t miss = b_.CreateBlock("groupMiss");
    uint32_t done = b_.CreateBlock("groupDone");

    b_.Br(chain_head);
    b_.SetInsertPoint(chain_head);
    uint32_t is_null = b_.CmpEq(Value::Reg(entry), Value::Imm(0));
    b_.CondBr(Value::Reg(is_null), miss, chain_body);

    b_.SetInsertPoint(chain_body);
    uint32_t entry_hash = b_.Load(Opcode::kLoad8, Value::Reg(entry),
                                  static_cast<int32_t>(kHtEntryHash), "entry hash");
    uint32_t hash_eq = b_.CmpEq(Value::Reg(entry_hash), Value::Reg(hash));
    uint32_t key_check = b_.CreateBlock("groupKeyCheck");
    b_.CondBr(Value::Reg(hash_eq), key_check, advance);
    b_.SetInsertPoint(key_check);
    for (size_t k = 0; k < keys.size(); ++k) {
      uint32_t stored =
          b_.Load(Opcode::kLoad8, Value::Reg(entry),
                  static_cast<int32_t>(kHtEntryPayload + layout.KeyOffset(k)), "stored key");
      uint32_t equal = b_.CmpEq(Value::Reg(stored), keys[k].value);
      uint32_t next_check = b_.CreateBlock("groupKeyEqual");
      b_.CondBr(Value::Reg(equal), next_check, advance);
      b_.SetInsertPoint(next_check);
    }
    b_.Br(found_block);

    b_.SetInsertPoint(advance);
    b_.Assign(entry, Opcode::kLoad8, Value::Reg(entry), Value::None());
    fn_.block(advance).instrs.back().disp = static_cast<int32_t>(kHtEntryNext);
    b_.Br(chain_head);

    // Found: update aggregates in place.
    b_.SetInsertPoint(found_block);
    {
      TaskScope agg_scope(this, agg_task);
      for (size_t a = 0; a < layout.aggs.size(); ++a) {
        EmitAggregateUpdate(layout.aggs[a], entry, inputs[a], /*first_value=*/false);
      }
    }
    b_.Br(done);

    // Miss: group-by inserts a new group; groupjoin-probe drops the tuple.
    b_.SetInsertPoint(miss);
    if (is_groupjoin_probe) {
      b_.Br(continue_stack_.back());
    } else {
      uint32_t new_entry = TaggedCall(InsertFn(),
                                      {Value::Reg(state.ht.table), Value::Reg(hash)},
                                      /*has_result=*/true, step.task, "insert group");
      b_.Copy(entry, Value::Reg(new_entry));
      for (size_t k = 0; k < keys.size(); ++k) {
        b_.Store(keys[k].value, Value::Reg(entry),
                 static_cast<int32_t>(kHtEntryPayload + layout.KeyOffset(k)),
                 "store group key");
      }
      TaskScope agg_scope(this, agg_task);
      for (size_t a = 0; a < layout.aggs.size(); ++a) {
        EmitAggregateUpdate(layout.aggs[a], entry, inputs[a], /*first_value=*/true);
      }
      b_.Br(done);
    }

    b_.SetInsertPoint(done);
    // Aggregation is terminal: the caller emits the branch to the continue target.
  }

  void EmitAggregateUpdate(const AggSlot& agg, uint32_t entry, const SlotVal& input,
                           bool first_value) {
    const int32_t disp = static_cast<int32_t>(kHtEntryPayload + agg.offset);
    switch (agg.op) {
      case AggOp::kSum: {
        if (first_value) {
          b_.Store(input.value, Value::Reg(entry), disp, "init sum");
          return;
        }
        uint32_t current = b_.Load(Opcode::kLoad8, Value::Reg(entry), disp, "sum");
        uint32_t updated =
            agg.in_type == ColumnType::kDouble
                ? b_.Binary(Opcode::kFAdd, Value::Reg(current), input.value, IrType::kF64)
                : b_.Add(Value::Reg(current), input.value);
        b_.Store(Value::Reg(updated), Value::Reg(entry), disp, "update sum");
        return;
      }
      case AggOp::kCount:
      case AggOp::kCountStar: {
        if (first_value) {
          uint32_t one = b_.Const(1);
          b_.Store(Value::Reg(one), Value::Reg(entry), disp, "init count");
          return;
        }
        uint32_t current = b_.Load(Opcode::kLoad8, Value::Reg(entry), disp, "count");
        uint32_t updated = b_.Add(Value::Reg(current), Value::Imm(1));
        b_.Store(Value::Reg(updated), Value::Reg(entry), disp, "update count");
        return;
      }
      case AggOp::kMin:
      case AggOp::kMax: {
        if (first_value) {
          b_.Store(input.value, Value::Reg(entry), disp, "init min/max");
          return;
        }
        uint32_t current = b_.Load(Opcode::kLoad8, Value::Reg(entry), disp, "min/max");
        uint32_t better;
        if (agg.in_type == ColumnType::kDouble) {
          better = b_.Binary(agg.op == AggOp::kMin ? Opcode::kFCmpLt : Opcode::kFCmpGt,
                             input.value, Value::Reg(current), IrType::kF64);
        } else {
          better = b_.Binary(agg.op == AggOp::kMin ? Opcode::kCmpLt : Opcode::kCmpGt,
                             input.value, Value::Reg(current));
        }
        uint32_t chosen = b_.Select(Value::Reg(better), input.value, Value::Reg(current));
        b_.Store(Value::Reg(chosen), Value::Reg(entry), disp, "update min/max");
        return;
      }
      case AggOp::kAvg: {
        const int32_t count_disp = static_cast<int32_t>(kHtEntryPayload + agg.offset2);
        if (first_value) {
          b_.Store(input.value, Value::Reg(entry), disp, "init avg sum");
          uint32_t one = b_.Const(1);
          b_.Store(Value::Reg(one), Value::Reg(entry), count_disp, "init avg count");
          return;
        }
        uint32_t sum = b_.Load(Opcode::kLoad8, Value::Reg(entry), disp, "avg sum");
        uint32_t new_sum =
            agg.in_type == ColumnType::kDouble
                ? b_.Binary(Opcode::kFAdd, Value::Reg(sum), input.value, IrType::kF64)
                : b_.Add(Value::Reg(sum), input.value);
        b_.Store(Value::Reg(new_sum), Value::Reg(entry), disp, "update avg sum");
        uint32_t count = b_.Load(Opcode::kLoad8, Value::Reg(entry), count_disp, "avg count");
        uint32_t new_count = b_.Add(Value::Reg(count), Value::Imm(1));
        b_.Store(Value::Reg(new_count), Value::Reg(entry), count_disp, "update avg count");
        return;
      }
    }
  }

  struct StepState {
    HtContext ht;
    uint32_t buf_base = kNoVReg;
    uint32_t cursor = kNoVReg;
    uint32_t row_count = kNoVReg;
    uint32_t tuple_counter = kNoVReg;  // EXPLAIN-ANALYZE-style counting (opt-in).
  };

  bool CountingEnabled(const PipelineStep& step) const {
    return counter_offsets_ != nullptr && step.task != kNoTask &&
           counter_offsets_->count(step.task) != 0;
  }

  // Emits the per-task tuple counter increment at a step's "tuple processed" point. Parallel
  // pipelines update the counter's state slot directly (it is shared across morsels).
  void CountTuple(size_t step_index) {
    const PipelineStep& step = pipeline_.steps[step_index];
    if (!CountingEnabled(step)) {
      return;
    }
    if (parallel_) {
      const uint32_t offset = counter_offsets_->at(step.task);
      uint32_t count = LoadState(offset, "shared tuple counter");
      uint32_t next = b_.Add(Value::Reg(count), Value::Imm(1));
      StoreState(offset, Value::Reg(next));
      return;
    }
    StepState& state = step_states_[step_index];
    b_.Assign(state.tuple_counter, Opcode::kAdd, Value::Reg(state.tuple_counter), Value::Imm(1));
  }

  // Hash-table builds in parallel pipelines must go through the stripe-locked insert: the bump
  // allocator and directory chains are shared across workers.
  uint32_t InsertFn() const {
    return parallel_ ? db_.runtime().ht_insert_locked_fn() : db_.runtime().ht_insert_fn();
  }

  Database& db_;
  ProfilingSession* session_;
  Pipeline& pipeline_;
  const std::unordered_map<uint64_t, uint32_t>& state_offsets_;
  const std::unordered_map<TaskId, uint32_t>* counter_offsets_;
  bool parallel_ = false;
  const PlanLiterals* literals_ = nullptr;
  IrFunction fn_;
  IrBuilder b_;
  Value state_base_;
  uint32_t entry_block_ = 0;
  uint32_t exit_block_ = 0;
  std::vector<uint32_t> continue_stack_;
  std::vector<StepState> step_states_;
};

}  // namespace

// ---------------------------------------------------------------------------------------------
// Driver: all three lowering steps.
// ---------------------------------------------------------------------------------------------

CompiledQuery CompileQuery(Database& db, PhysicalOpPtr plan, ProfilingSession* session,
                           std::string name, const CodegenOptions& options) {
  CompiledQuery query;
  query.name = std::move(name);
  query.plan = std::move(plan);
  query.output_schema = query.plan->output;
  query.session = session;
  query.parallel = options.parallel;

  // Step 1: operators -> pipelines of tasks (+ execution schedule, Log A).
  PlanLowering lowering(session, &query);
  lowering.Run(*query.plan);
  std::vector<Pipeline> pipelines = lowering.TakePipelines();
  std::unordered_map<uint64_t, uint32_t> state_offsets = lowering.TakeStateOffsets();

  // Register sort specifications now that pipelines are known.
  for (size_t step_index : lowering.sort_steps()) {
    ExecStep& step = query.exec_steps[step_index];
    const PhysicalOp& op = *step.op;
    SortSpec spec;
    spec.row_size = op.child(0)->output.size() * 8;
    for (const SortItem& item : op.sort_items) {
      ColumnType type = op.child(0)->output[static_cast<size_t>(item.slot)].type;
      ColumnType key_type = type == ColumnType::kDouble   ? ColumnType::kDouble
                            : type == ColumnType::kString ? ColumnType::kString
                                                          : ColumnType::kInt64;
      spec.keys.push_back({static_cast<int64_t>(item.slot) * 8, key_type, item.descending});
    }
    step.sort_spec = db.runtime().RegisterSortSpec(std::move(spec));
  }
  if (query.state_bytes == 0) {
    query.state_bytes = 8;  // Degenerate plans still get a state block.
  }

  // Optional EXPLAIN-ANALYZE-style tuple counters: one state slot per task.
  std::unordered_map<TaskId, uint32_t> counter_offsets;
  if (options.count_tuples && session != nullptr) {
    for (const TaskInfo& task : session->dictionary().tasks()) {
      const uint32_t offset = static_cast<uint32_t>(query.state_bytes);
      query.state_bytes += 8;
      counter_offsets.emplace(task.id, offset);
      query.tuple_count_slots.emplace_back(task.id, offset);
    }
  }

  // Steps 2 + 3: pipelines -> VIR -> machine code.
  IrIdAllocator ids;
  for (Pipeline& pipeline : pipelines) {
    std::string fn_name = StrFormat("%s.p%u", query.name.c_str(), pipeline.id);
    PipelineEmitter emitter(db, session, pipeline, state_offsets,
                            counter_offsets.empty() ? nullptr : &counter_offsets, ids, fn_name,
                            options.parallel, options.literals);
    emitter.Emit();
    IrFunction ir = emitter.Take();

    CompileOptions compile_options;
    compile_options.optimize = options.optimize_ir;
    compile_options.reserve_tag_register =
        options.force_reserve_tag_register ||
        (session != nullptr && (session->use_register_tagging() ||
                                session->config().tag_all_instructions));
    compile_options.lineage = session != nullptr ? &session->dictionary() : nullptr;
    CompileStats stats;
    EmittedFunction emitted = CompileFunction(ir, compile_options, &stats);
    if (session != nullptr && session->config().tag_all_instructions) {
      emitted.code = ApplyValidationTags(std::move(emitted.code), session->dictionary());
    }

    PipelineArtifact artifact(std::move(ir));
    artifact.pipeline = std::move(pipeline);
    artifact.stats = stats;
    artifact.literal_sites = std::move(emitted.literal_sites);
    artifact.listing = PrintFunction(artifact.ir);
    artifact.segment =
        db.code_map().AddSegment(SegmentKind::kGenerated, fn_name, std::move(emitted.code));
    artifact.function = db.code_map().AddFunction(fn_name, artifact.segment, 0,
                                                  emitted.spill_slots, emitted.num_args);
    query.pipelines.push_back(std::move(artifact));
  }
  return query;
}

}  // namespace dfp
