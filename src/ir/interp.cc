#include "src/ir/interp.h"

#include <optional>
#include <vector>

#include "src/util/check.h"

namespace dfp {

uint64_t InterpretIr(const IrFunction& function, std::span<const uint64_t> args, VMem& mem,
                     IrInterpEnv* env, uint64_t max_steps) {
  std::vector<uint64_t> regs(function.next_vreg(), 0);
  DFP_CHECK(args.size() == function.num_args());
  for (size_t i = 0; i < args.size(); ++i) {
    regs[i] = args[i];
  }
  IrInterpEnv local_env;
  if (env == nullptr) {
    env = &local_env;
  }

  auto value_of = [&](const Value& v) -> uint64_t {
    switch (v.kind) {
      case Value::Kind::kNone:
        return 0;
      case Value::Kind::kVReg:
        return regs[v.vreg];
      case Value::Kind::kImm:
        return static_cast<uint64_t>(v.imm);
    }
    return 0;
  };

  uint32_t block = 0;
  size_t index = 0;
  uint64_t steps = 0;
  while (true) {
    DFP_CHECK(++steps <= max_steps);
    const IrBlock& current = function.block(block);
    DFP_CHECK(index < current.instrs.size());
    const IrInstr& in = current.instrs[index++];
    const uint64_t a = value_of(in.a);
    const uint64_t b = value_of(in.b);
    switch (in.op) {
      case Opcode::kLoad1:
        regs[in.dst] = mem.Read<uint8_t>(a + static_cast<uint64_t>(static_cast<int64_t>(in.disp)));
        break;
      case Opcode::kLoad4:
        regs[in.dst] = static_cast<uint64_t>(static_cast<int64_t>(
            mem.Read<int32_t>(a + static_cast<uint64_t>(static_cast<int64_t>(in.disp)))));
        break;
      case Opcode::kLoad8:
        regs[in.dst] = mem.Read<uint64_t>(a + static_cast<uint64_t>(static_cast<int64_t>(in.disp)));
        break;
      case Opcode::kStore8:
        mem.Write<uint64_t>(b + static_cast<uint64_t>(static_cast<int64_t>(in.disp)), a);
        break;
      case Opcode::kBr:
        block = in.target0;
        index = 0;
        break;
      case Opcode::kCondBr:
        block = a != 0 ? in.target0 : in.target1;
        index = 0;
        break;
      case Opcode::kCall: {
        DFP_CHECK(env->call != nullptr);
        std::vector<uint64_t> call_args;
        call_args.reserve(in.args.size());
        for (const Value& arg : in.args) {
          call_args.push_back(value_of(arg));
        }
        uint64_t result = env->call(in.callee, call_args);
        if (in.HasDst()) {
          regs[in.dst] = result;
        }
        break;
      }
      case Opcode::kRet:
        return in.a.IsNone() ? 0 : a;
      case Opcode::kGetTag:
        regs[in.dst] = env->tag;
        break;
      case Opcode::kSetTag:
        env->tag = a;
        break;
      case Opcode::kLoadSpill:
      case Opcode::kStoreSpill:
        DFP_UNREACHABLE();
      default: {
        const std::optional<uint64_t> value = EvalOp(in.op, a, b, value_of(in.c));
        DFP_CHECK(value.has_value());
        regs[in.dst] = *value;
        break;
      }
    }
  }
}

}  // namespace dfp
