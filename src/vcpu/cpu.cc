#include "src/vcpu/cpu.h"

#include <array>
#include <bit>

#include "src/util/check.h"
#include "src/util/hash.h"

namespace dfp {
namespace {

inline int64_t AsSigned(uint64_t value) { return static_cast<int64_t>(value); }
inline double AsDouble(uint64_t value) { return std::bit_cast<double>(value); }
inline uint64_t FromDouble(double value) { return std::bit_cast<uint64_t>(value); }

// BaseCost of every opcode value, read once per executed instruction.
constexpr std::array<uint8_t, 256> kBaseCosts = [] {
  std::array<uint8_t, 256> costs{};
  for (size_t op = 0; op < costs.size(); ++op) {
    costs[op] = static_cast<uint8_t>(BaseCost(static_cast<Opcode>(op)));
  }
  return costs;
}();

inline uint64_t RotateRight(uint64_t value, uint64_t amount) {
  amount &= 63u;
  if (amount == 0) {
    return value;
  }
  return (value >> amount) | (value << (64 - amount));
}

}  // namespace

Cpu::Cpu(VMem& mem, const CodeMap& code_map, Pmu& pmu)
    : mem_(mem), code_map_(code_map), pmu_(pmu) {
  frames_.reserve(64);
}

uint64_t Cpu::CallFunction(uint32_t func_id, std::span<const uint64_t> args) {
  const FuncInfo& func = code_map_.function(func_id);
  if (func.is_host) {
    return func.host(*this, args);
  }
  DFP_CHECK(frames_.size() < kMaxStackDepth);
  Frame frame = EnterFrame(func);
  DFP_CHECK(args.size() <= kNumPhysRegs);
  for (size_t i = 0; i < args.size(); ++i) {
    frame.regs[i] = args[i];
  }
  size_t stop_depth = frames_.size();
  frames_.push_back(std::move(frame));
  stats_.max_stack_depth = std::max<uint64_t>(stats_.max_stack_depth, frames_.size());
  Run(stop_depth);
  return ret_value_;
}

Cpu::Frame Cpu::EnterFrame(const FuncInfo& func) const {
  Frame frame;
  frame.seg = &code_map_.segment(func.segment);
  frame.off = func.entry;
  frame.spills.resize(func.spill_slots, 0);
  return frame;
}

uint64_t Cpu::ReadArg(Frame& frame, const MArg& arg, uint32_t* extra_cost) {
  switch (arg.kind) {
    case MArg::Kind::kReg:
      return ReadReg(frame, static_cast<uint8_t>(arg.value));
    case MArg::Kind::kSpill:
      *extra_cost += BaseCost(Opcode::kLoadSpill);
      return frame.spills[arg.value];
    case MArg::Kind::kImm:
      return arg.value;
  }
  DFP_UNREACHABLE();
}

void Cpu::Run(size_t stop_depth) {
  // The active frame and its code position, held in locals. `off` is stored back into the frame
  // when the frame suspends at a call, the only time another frame or a sample can read it, and
  // loaded again when the frame becomes active. The cached code and length stay valid while the
  // frame is active: it holds `seg` for its whole call, and plan patching rewrites immediates in
  // place without resizing code. Run returns when the frame it was entered with returns.
  Frame* fr = nullptr;
  const MInstr* code = nullptr;
  size_t code_len = 0;
  uint64_t base_ip = 0;
  uint32_t off = 0;
  const auto activate = [&] {
    fr = &frames_.back();
    code = fr->seg->code.data();
    code_len = fr->seg->code.size();
    base_ip = fr->seg->base_ip;
    off = fr->off;
  };
  activate();
  for (;;) {
    DFP_CHECK(off < code_len);
    const MInstr& in = code[off];
    const uint64_t ip = base_ip + off;
    off += 1;  // Fall-through; terminators overwrite. Suspended frames resume past the call.

    uint32_t cost = kBaseCosts[static_cast<uint8_t>(in.op)];
    uint64_t sample_addr = 0;
    DataAccess access;  // The instruction's data access, if any, for the sample.
    bool sample_due = false;
    bool returned = false;  // The frame Run was entered with returned.

    // Operand fetch helpers. `a` may be an immediate (kConst / kSetTag); `b` may be an immediate
    // for binary operations.
    const uint64_t a = in.a_is_imm ? static_cast<uint64_t>(in.imm)
                                   : (in.ra != kNoPhysReg ? ReadReg(*fr, in.ra) : 0);
    const uint64_t b = in.b_is_imm ? static_cast<uint64_t>(in.imm)
                                   : (in.rb != kNoPhysReg ? ReadReg(*fr, in.rb) : 0);

    switch (in.op) {
      case Opcode::kConst:
      case Opcode::kMov:
        WriteReg(*fr, in.dst, a);
        break;
      case Opcode::kAdd:
        WriteReg(*fr, in.dst, a + b);
        break;
      case Opcode::kSub:
        WriteReg(*fr, in.dst, a - b);
        break;
      case Opcode::kMul:
        WriteReg(*fr, in.dst, a * b);
        break;
      case Opcode::kDiv:
        DFP_CHECK(b != 0);
        WriteReg(*fr, in.dst, static_cast<uint64_t>(AsSigned(a) / AsSigned(b)));
        break;
      case Opcode::kRem:
        DFP_CHECK(b != 0);
        WriteReg(*fr, in.dst, static_cast<uint64_t>(AsSigned(a) % AsSigned(b)));
        break;
      case Opcode::kAnd:
        WriteReg(*fr, in.dst, a & b);
        break;
      case Opcode::kOr:
        WriteReg(*fr, in.dst, a | b);
        break;
      case Opcode::kXor:
        WriteReg(*fr, in.dst, a ^ b);
        break;
      case Opcode::kShl:
        WriteReg(*fr, in.dst, a << (b & 63));
        break;
      case Opcode::kShr:
        WriteReg(*fr, in.dst, a >> (b & 63));
        break;
      case Opcode::kRotr:
        WriteReg(*fr, in.dst, RotateRight(a, b));
        break;
      case Opcode::kNot:
        WriteReg(*fr, in.dst, ~a);
        break;
      case Opcode::kNeg:
        WriteReg(*fr, in.dst, static_cast<uint64_t>(-AsSigned(a)));
        break;
      case Opcode::kCmpEq:
        WriteReg(*fr, in.dst, a == b ? 1 : 0);
        break;
      case Opcode::kCmpNe:
        WriteReg(*fr, in.dst, a != b ? 1 : 0);
        break;
      case Opcode::kCmpLt:
        WriteReg(*fr, in.dst, AsSigned(a) < AsSigned(b) ? 1 : 0);
        break;
      case Opcode::kCmpLe:
        WriteReg(*fr, in.dst, AsSigned(a) <= AsSigned(b) ? 1 : 0);
        break;
      case Opcode::kCmpGt:
        WriteReg(*fr, in.dst, AsSigned(a) > AsSigned(b) ? 1 : 0);
        break;
      case Opcode::kCmpGe:
        WriteReg(*fr, in.dst, AsSigned(a) >= AsSigned(b) ? 1 : 0);
        break;
      case Opcode::kFAdd:
        WriteReg(*fr, in.dst, FromDouble(AsDouble(a) + AsDouble(b)));
        break;
      case Opcode::kFSub:
        WriteReg(*fr, in.dst, FromDouble(AsDouble(a) - AsDouble(b)));
        break;
      case Opcode::kFMul:
        WriteReg(*fr, in.dst, FromDouble(AsDouble(a) * AsDouble(b)));
        break;
      case Opcode::kFDiv:
        WriteReg(*fr, in.dst, FromDouble(AsDouble(a) / AsDouble(b)));
        break;
      case Opcode::kFNeg:
        WriteReg(*fr, in.dst, FromDouble(-AsDouble(a)));
        break;
      case Opcode::kFCmpEq:
        WriteReg(*fr, in.dst, AsDouble(a) == AsDouble(b) ? 1 : 0);
        break;
      case Opcode::kFCmpNe:
        WriteReg(*fr, in.dst, AsDouble(a) != AsDouble(b) ? 1 : 0);
        break;
      case Opcode::kFCmpLt:
        WriteReg(*fr, in.dst, AsDouble(a) < AsDouble(b) ? 1 : 0);
        break;
      case Opcode::kFCmpLe:
        WriteReg(*fr, in.dst, AsDouble(a) <= AsDouble(b) ? 1 : 0);
        break;
      case Opcode::kFCmpGt:
        WriteReg(*fr, in.dst, AsDouble(a) > AsDouble(b) ? 1 : 0);
        break;
      case Opcode::kFCmpGe:
        WriteReg(*fr, in.dst, AsDouble(a) >= AsDouble(b) ? 1 : 0);
        break;
      case Opcode::kSiToFp:
        WriteReg(*fr, in.dst, FromDouble(static_cast<double>(AsSigned(a))));
        break;
      case Opcode::kFpToSi:
        WriteReg(*fr, in.dst, static_cast<uint64_t>(static_cast<int64_t>(AsDouble(a))));
        break;
      case Opcode::kCrc32:
        WriteReg(*fr, in.dst, Crc32u64(static_cast<uint32_t>(a), b));
        break;
      case Opcode::kLoad1:
      case Opcode::kLoad2:
      case Opcode::kLoad4:
      case Opcode::kLoad8: {
        const VAddr addr = a + static_cast<VAddr>(static_cast<int64_t>(in.disp));
        access = AccessData(addr);
        cost += access.latency + access.numa_penalty;
        sample_due |= access.sample_due | pmu_.Tick(PmuEvent::kLoads);
        sample_addr = addr;
        uint64_t value = 0;
        switch (in.op) {
          case Opcode::kLoad1:
            value = mem_.Read<uint8_t>(addr);
            break;
          case Opcode::kLoad2:
            value = mem_.Read<uint16_t>(addr);
            break;
          case Opcode::kLoad4:
            value = static_cast<uint64_t>(static_cast<int64_t>(mem_.Read<int32_t>(addr)));
            break;
          default:
            value = mem_.Read<uint64_t>(addr);
            break;
        }
        WriteReg(*fr, in.dst, value);
        break;
      }
      case Opcode::kStore1:
      case Opcode::kStore2:
      case Opcode::kStore4:
      case Opcode::kStore8: {
        const VAddr addr = b + static_cast<VAddr>(static_cast<int64_t>(in.disp));
        access = AccessData(addr);
        cost += access.numa_penalty;  // The store buffer hides the cache latency.
        sample_due |= access.sample_due;
        sample_addr = addr;  // PEBS records store addresses too (cache-miss profiles).
        switch (in.op) {
          case Opcode::kStore1:
            mem_.Write<uint8_t>(addr, static_cast<uint8_t>(a));
            break;
          case Opcode::kStore2:
            mem_.Write<uint16_t>(addr, static_cast<uint16_t>(a));
            break;
          case Opcode::kStore4:
            mem_.Write<uint32_t>(addr, static_cast<uint32_t>(a));
            break;
          default:
            mem_.Write<uint64_t>(addr, a);
            break;
        }
        break;
      }
      case Opcode::kSelect:
        WriteReg(*fr, in.dst, a != 0 ? b : ReadReg(*fr, in.rc));
        break;
      case Opcode::kBr:
        off = in.target0;
        break;
      case Opcode::kCondBr: {
        const bool taken = a != 0;
        if (predictor_.Branch(ip, taken)) {
          cost += BranchPredictor::kMissPenalty;
          sample_due |= pmu_.Tick(PmuEvent::kBranchMiss);
        }
        off = taken ? in.target0 : in.target1;
        break;
      }
      case Opcode::kCall: {
        const FuncInfo& callee = code_map_.function(in.callee);
        uint64_t arg_values[kNumPhysRegs] = {};
        DFP_CHECK(in.args.size() <= kNumPhysRegs);
        uint32_t arg_cost = 0;
        for (size_t i = 0; i < in.args.size(); ++i) {
          arg_values[i] = ReadArg(*fr, in.args[i], &arg_cost);
        }
        cost += arg_cost;
        ++stats_.calls;
        fr->off = off;  // Suspends this frame: the callee's call stacks read its call site.
        if (callee.is_host) {
          // Charge the call cost and the instruction event before running the host body so that
          // host-side samples observe a consistent clock.
          cycles_ += cost;
          ++stats_.instructions;
          sample_due |= pmu_.Tick(PmuEvent::kInstrRetired);
          if (sample_due) {
            TakeSample(ip, sample_addr, access);
          }
          uint64_t result =
              callee.host(*this, std::span<const uint64_t>(arg_values, in.args.size()));
          // `fr` may be dangling if the host function re-entered the VCPU; re-resolve.
          fr = &frames_.back();
          if (in.dst != kNoPhysReg) {
            WriteReg(*fr, in.dst, result);
          }
          continue;  // Costs already charged.
        }
        DFP_CHECK(frames_.size() < kMaxStackDepth);
        Frame frame = EnterFrame(callee);
        frame.ret_dst = in.dst;
        for (size_t i = 0; i < in.args.size(); ++i) {
          frame.regs[i] = arg_values[i];
        }
        frames_.push_back(std::move(frame));
        activate();
        stats_.max_stack_depth = std::max<uint64_t>(stats_.max_stack_depth, frames_.size());
        break;
      }
      case Opcode::kRet: {
        const uint64_t value = (in.ra != kNoPhysReg || in.a_is_imm) ? a : 0;
        const uint8_t ret_dst = fr->ret_dst;
        frames_.pop_back();
        if (frames_.size() <= stop_depth) {
          ret_value_ = value;
          returned = true;
          break;
        }
        activate();
        if (ret_dst != kNoPhysReg) {
          WriteReg(*fr, ret_dst, value);
        }
        break;
      }
      case Opcode::kGetTag:
        WriteReg(*fr, in.dst, tag_reg_);
        break;
      case Opcode::kSetTag:
        tag_reg_ = a;
        break;
      case Opcode::kLoadSpill:
        WriteReg(*fr, in.dst, fr->spills[in.spill_slot]);
        break;
      case Opcode::kStoreSpill:
        fr->spills[in.spill_slot] = a;
        break;
    }

    cycles_ += cost;
    ++stats_.instructions;
    sample_due |= pmu_.Tick(PmuEvent::kInstrRetired);
    if (sample_due) {
      TakeSample(ip, sample_addr, access);
    }
    if (returned) {
      return;
    }
  }
}

Cpu::DataAccess Cpu::AccessData(VAddr addr) {
  const CacheAccessResult res = cache_.Access(addr);
  DataAccess access;
  access.latency = res.latency;
  if (res.hit_level >= 2) {
    access.sample_due |= pmu_.Tick(PmuEvent::kL1Miss);
  }
  if (res.hit_level >= 3) {
    access.sample_due |= pmu_.Tick(PmuEvent::kL2Miss);
  }
  if (res.hit_level >= 4) {
    access.sample_due |= pmu_.Tick(PmuEvent::kL3Miss);
  }
  if (numa_ == nullptr) {
    return access;
  }
  const NumaPlace place = numa_->Locate(addr);
  if (place.machine != kLocalMachineNode) {
    // Memory homed on another machine node: a shard-fabric hop, costlier than any cross-socket
    // path. The sample reports the owning machine node in `mem_node` with the cross flag set.
    access.mem_node = place.machine;
    access.cross = true;
    ++numa_stats_.cross_node_accesses;
    if (res.hit_level >= 4) {
      access.numa_penalty = kCrossNodePenaltyCycles;
      ++numa_stats_.cross_node_dram;
      access.sample_due |= pmu_.Tick(PmuEvent::kCrossNode);
    }
    return access;
  }
  if (place.node == kNoNumaNode) {
    return access;
  }
  access.mem_node = place.node;
  if (place.node == node_id_) {
    ++numa_stats_.local_accesses;
    return access;
  }
  access.remote = true;
  ++numa_stats_.remote_accesses;
  // The interconnect only matters when the access actually leaves the socket: cache hits are
  // served locally regardless of the line's home node, so charge only misses to memory.
  if (res.hit_level >= 4) {
    access.numa_penalty = kRemoteDramPenaltyCycles;
    ++numa_stats_.remote_dram;
    access.sample_due |= pmu_.Tick(PmuEvent::kRemoteDram);
  }
  return access;
}

void Cpu::TakeSample(uint64_t ip, uint64_t addr, DataAccess access) {
  const SamplingConfig& config = pmu_.config();
  if (!config.enabled) {
    return;
  }
  Sample sample;
  sample.tsc = cycles_;
  sample.ip = ip;
  sample.worker_id = worker_id_;
  sample.session_id = session_id_;
  sample.shard_id = shard_id_;
  sample.stolen = stolen_work_;
  if (config.capture_address) {
    sample.addr = addr;
    sample.mem_node = access.mem_node;
    sample.numa_remote = access.remote;
    sample.cross_node = access.cross;
  }
  if (config.capture_registers) {
    sample.has_registers = true;
    if (!frames_.empty()) {
      sample.regs = frames_.back().regs;
    }
    sample.regs[kTagReg] = tag_reg_;
  }
  if (config.capture_callstack) {
    sample.callstack = CaptureCallStack();
  }
  cycles_ += pmu_.Record(std::move(sample));
}

std::vector<uint64_t> Cpu::CaptureCallStack() const {
  std::vector<uint64_t> stack;
  if (frames_.empty()) {
    return stack;
  }
  stack.reserve(frames_.size() - 1);
  // Suspended frames have `off` pointing past their call instruction; `off - 1` is the call site.
  for (size_t i = frames_.size() - 1; i-- > 0;) {
    const Frame& frame = frames_[i];
    stack.push_back(frame.seg->base_ip + frame.off - 1);
  }
  return stack;
}

void Cpu::HostWork(uint32_t segment_id, uint64_t instrs) {
  const CodeSegment& segment = code_map_.segment(segment_id);
  DFP_CHECK(segment.virtual_size > 0);
  // Chunk at most one sampling period at a time, so host work samples at the same cadence as
  // executed instructions (larger chunks would collapse several period crossings into one).
  uint64_t max_chunk = 1024;
  if (pmu_.config().enabled && pmu_.config().event == PmuEvent::kInstrRetired) {
    max_chunk = std::max<uint64_t>(1, std::min<uint64_t>(max_chunk, pmu_.config().period));
  }
  uint64_t remaining = instrs;
  while (remaining > 0) {
    const uint64_t chunk = std::min<uint64_t>(remaining, max_chunk);
    cycles_ += chunk;
    stats_.instructions += chunk;
    if (pmu_.Tick(PmuEvent::kInstrRetired, chunk)) {
      const uint64_t ip = segment.base_ip + (host_ip_counter_++ % segment.virtual_size);
      TakeSample(ip, 0, DataAccess());
    }
    remaining -= chunk;
  }
}

void Cpu::HostLoad(uint32_t segment_id, VAddr addr) {
  const CodeSegment& segment = code_map_.segment(segment_id);
  const DataAccess access = AccessData(addr);
  ++stats_.instructions;
  bool sample_due = pmu_.Tick(PmuEvent::kInstrRetired);
  sample_due |= pmu_.Tick(PmuEvent::kLoads) | access.sample_due;
  cycles_ += access.latency + access.numa_penalty;
  if (sample_due) {
    const uint64_t ip = segment.base_ip + (host_ip_counter_++ % segment.SizeIps());
    TakeSample(ip, addr, access);
  }
}

}  // namespace dfp
