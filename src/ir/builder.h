// IRBuilder: the single funnel through which all VIR instructions are created.
//
// As in the paper's Umbra prototype, instruction generation is funnelled through one code
// location, which is where the profiling integration hooks in: an observer is invoked for every
// appended instruction so the Tagging Dictionary can link it to the active pipeline task.
#ifndef DFP_SRC_IR_BUILDER_H_
#define DFP_SRC_IR_BUILDER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/ir/instr.h"
#include "src/util/check.h"

namespace dfp {

// Allocates query-unique instruction ids across all functions of one compilation.
class IrIdAllocator {
 public:
  // `start` offsets the id space; runtime functions use a high base so their ids can never be
  // confused with a query's ids.
  explicit IrIdAllocator(uint32_t start = 0) : start_(start), next_(start) {}

  uint32_t Next() { return next_++; }
  uint32_t count() const { return next_ - start_; }

 private:
  uint32_t start_;
  uint32_t next_;
};

class IrBuilder {
 public:
  using InstrObserver = std::function<void(const IrInstr&)>;

  IrBuilder(IrFunction* function, IrIdAllocator* ids) : function_(function), ids_(ids) {
    DFP_CHECK(function != nullptr && ids != nullptr);
  }

  // Registers a callback invoked for every appended instruction (profiling integration).
  void SetObserver(InstrObserver observer) { observer_ = std::move(observer); }

  uint32_t CreateBlock(std::string name) { return function_->AddBlock(std::move(name)); }
  void SetInsertPoint(uint32_t block) { current_block_ = block; }
  IrFunction& function() { return *function_; }

  // --- Emission helpers. Value-producing helpers return the destination virtual register. ---

  uint32_t Const(int64_t value, uint32_t literal_slot = kNoLiteralSlot);
  uint32_t ConstF(double value, uint32_t literal_slot = kNoLiteralSlot);
  uint32_t Unary(Opcode op, Value a, IrType type = IrType::kI64);
  uint32_t Binary(Opcode op, Value a, Value b, IrType type = IrType::kI64);
  uint32_t Crc32(Value seed, Value value);
  uint32_t Select(Value cond, Value a, Value b, IrType type = IrType::kI64);
  uint32_t Load(Opcode op, Value addr, int32_t disp = 0, std::string comment = "");
  void Store(Value value, Value addr, int32_t disp = 0, std::string comment = "");
  void Br(uint32_t target);
  void CondBr(Value cond, uint32_t if_true, uint32_t if_false);
  // `has_result` selects whether the call produces a value.
  uint32_t Call(uint32_t callee, std::vector<Value> args, bool has_result,
                std::string comment = "");
  void Ret(Value value = Value::None());
  uint32_t GetTag();
  void SetTag(Value value);

  // Convenience integer forms.
  uint32_t Add(Value a, Value b) { return Binary(Opcode::kAdd, a, b); }
  uint32_t Sub(Value a, Value b) { return Binary(Opcode::kSub, a, b); }
  uint32_t Mul(Value a, Value b) { return Binary(Opcode::kMul, a, b); }
  uint32_t Div(Value a, Value b) { return Binary(Opcode::kDiv, a, b); }
  uint32_t CmpEq(Value a, Value b) { return Binary(Opcode::kCmpEq, a, b); }
  uint32_t CmpNe(Value a, Value b) { return Binary(Opcode::kCmpNe, a, b); }
  uint32_t CmpLt(Value a, Value b) { return Binary(Opcode::kCmpLt, a, b); }

  // Non-SSA in-place updates: write the result of an operation into an existing register
  // (loop counters, accumulators).
  void Assign(uint32_t dst, Opcode op, Value a, Value b = Value::None(),
              IrType type = IrType::kI64);
  void Copy(uint32_t dst, Value src, IrType type = IrType::kI64);

  // Computes the standard key-hash sequence (two crc32 lanes, rotate, xor, multiply) exactly as
  // HashKey() does host-side.
  uint32_t EmitHash(Value key);

  // Attaches a comment to the most recently emitted instruction.
  void AnnotateLast(std::string comment);

 private:
  IrInstr& Append(IrInstr instr);

  IrFunction* function_;
  IrIdAllocator* ids_;
  InstrObserver observer_;
  uint32_t current_block_ = 0;
};

}  // namespace dfp

#endif  // DFP_SRC_IR_BUILDER_H_
