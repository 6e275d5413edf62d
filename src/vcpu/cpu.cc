#include "src/vcpu/cpu.h"

#include <algorithm>
#include <optional>

#include "src/util/check.h"

namespace dfp {
namespace {

inline int64_t AsSigned(uint64_t value) { return static_cast<int64_t>(value); }

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
  std::copy(args.begin(), args.end(), frame.regs.begin());
  frame.regs[kTagReg] = frames_.empty() ? tag_reg_ : frames_.back().regs[kTagReg];
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

void Cpu::Run(size_t stop_depth) {
  // The active frame and its code position, held in locals. `off` is stored back into the frame
  // when the frame suspends at a call, the only time another frame or a sample can read it, and
  // loaded again when the frame becomes active. The cached code and length stay valid while the
  // frame is active: it holds `seg` for its whole call, and plan patching rewrites immediates in
  // place without resizing code. Run returns when the frame it was entered with returns.
  Frame* fr = nullptr;
  uint64_t* r = nullptr;
  const ExecInstr* code = nullptr;
  const MArg* call_args = nullptr;
  size_t code_len = 0;
  uint64_t base_ip = 0;
  uint32_t off = 0;
  const auto activate = [&] {
    fr = &frames_.back();
    r = fr->regs.data();
    code = fr->seg->code.data();
    call_args = fr->seg->call_args.data();
    code_len = fr->seg->code.size();
    base_ip = fr->seg->base_ip;
    off = fr->off;
  };
  activate();
  // The clock, the instruction count and the INSTR_RETIRED ticks the PMU has not seen yet, held
  // in locals too. `store` writes them back before anything outside the loop can read them: a
  // sample, a host call and the return. Handing the PMU at most `budget` ticks at once is exact.
  uint64_t cycles = cycles_;
  uint64_t instrs = stats_.instructions;
  uint64_t pending = 0;
  uint64_t budget = pmu_.InstrRetiredBudget();
  // The data access of the last load or store, for a sample due at it.
  uint64_t sample_addr = 0;
  DataAccess access;
  const auto store = [&] {  // Returns whether the handed-over ticks made a sample due.
    cycles_ = cycles;
    stats_.instructions = instrs;
    const bool due = pmu_.Tick(PmuEvent::kInstrRetired, pending);
    pending = 0;
    return due;
  };
  for (;;) {
    DFP_CHECK(off < code_len);
    const ExecInstr& in = code[off];
    const uint64_t ip = base_ip + off;  // Taken before a call or return switches frames.
    off += 1;  // Fall-through; terminators overwrite. Suspended frames resume past the call.

    cycles += in.cost;
    bool sample_due = false;

    switch (in.xop) {
      case ExecOp::kMovImm:
        r[in.dst] = in.payload;
        break;
      case ExecOp::kMovReg:
        r[in.dst] = r[in.ra];
        break;
      case ExecOp::kAddRR:
        r[in.dst] = r[in.ra] + r[in.rb];
        break;
      case ExecOp::kAddRI:
        r[in.dst] = r[in.ra] + in.payload;
        break;
      case ExecOp::kSubRR:
        r[in.dst] = r[in.ra] - r[in.rb];
        break;
      case ExecOp::kSubRI:
        r[in.dst] = r[in.ra] - in.payload;
        break;
      case ExecOp::kMulRR:
        r[in.dst] = r[in.ra] * r[in.rb];
        break;
      case ExecOp::kMulRI:
        r[in.dst] = r[in.ra] * in.payload;
        break;
      case ExecOp::kAndRR:
        r[in.dst] = r[in.ra] & r[in.rb];
        break;
      case ExecOp::kAndRI:
        r[in.dst] = r[in.ra] & in.payload;
        break;
      case ExecOp::kOrRR:
        r[in.dst] = r[in.ra] | r[in.rb];
        break;
      case ExecOp::kOrRI:
        r[in.dst] = r[in.ra] | in.payload;
        break;
      case ExecOp::kXorRR:
        r[in.dst] = r[in.ra] ^ r[in.rb];
        break;
      case ExecOp::kXorRI:
        r[in.dst] = r[in.ra] ^ in.payload;
        break;
      case ExecOp::kShlRR:
        r[in.dst] = r[in.ra] << (r[in.rb] & 63);
        break;
      case ExecOp::kShlRI:
        r[in.dst] = r[in.ra] << (in.payload & 63);
        break;
      case ExecOp::kShrRR:
        r[in.dst] = r[in.ra] >> (r[in.rb] & 63);
        break;
      case ExecOp::kShrRI:
        r[in.dst] = r[in.ra] >> (in.payload & 63);
        break;
      case ExecOp::kCmpEqRR:
        r[in.dst] = r[in.ra] == r[in.rb] ? 1 : 0;
        break;
      case ExecOp::kCmpEqRI:
        r[in.dst] = r[in.ra] == in.payload ? 1 : 0;
        break;
      case ExecOp::kCmpNeRR:
        r[in.dst] = r[in.ra] != r[in.rb] ? 1 : 0;
        break;
      case ExecOp::kCmpNeRI:
        r[in.dst] = r[in.ra] != in.payload ? 1 : 0;
        break;
      case ExecOp::kCmpLtRR:
        r[in.dst] = AsSigned(r[in.ra]) < AsSigned(r[in.rb]) ? 1 : 0;
        break;
      case ExecOp::kCmpLtRI:
        r[in.dst] = AsSigned(r[in.ra]) < AsSigned(in.payload) ? 1 : 0;
        break;
      case ExecOp::kCmpLeRR:
        r[in.dst] = AsSigned(r[in.ra]) <= AsSigned(r[in.rb]) ? 1 : 0;
        break;
      case ExecOp::kCmpLeRI:
        r[in.dst] = AsSigned(r[in.ra]) <= AsSigned(in.payload) ? 1 : 0;
        break;
      case ExecOp::kCmpGtRR:
        r[in.dst] = AsSigned(r[in.ra]) > AsSigned(r[in.rb]) ? 1 : 0;
        break;
      case ExecOp::kCmpGtRI:
        r[in.dst] = AsSigned(r[in.ra]) > AsSigned(in.payload) ? 1 : 0;
        break;
      case ExecOp::kCmpGeRR:
        r[in.dst] = AsSigned(r[in.ra]) >= AsSigned(r[in.rb]) ? 1 : 0;
        break;
      case ExecOp::kCmpGeRI:
        r[in.dst] = AsSigned(r[in.ra]) >= AsSigned(in.payload) ? 1 : 0;
        break;
      case ExecOp::kSelect:
        r[in.dst] = r[in.ra] != 0 ? r[in.rb] : r[in.rc];
        break;
      case ExecOp::kAlu: {
        const uint64_t a = (in.bits & ExecInstr::kAImm) != 0 ? in.payload : r[in.ra];
        const uint64_t b = (in.bits & ExecInstr::kBImm) != 0 ? in.payload : r[in.rb];
        const std::optional<uint64_t> value = EvalOp(in.op, a, b, r[in.rc]);
        DFP_CHECK(value.has_value());
        r[in.dst] = *value;
        break;
      }
      case ExecOp::kLoad1:
      case ExecOp::kLoad4:
      case ExecOp::kLoad8: {
        const VAddr addr = r[in.ra] + in.payload;
        access = AccessData(addr);
        cycles += access.latency + access.numa_penalty;
        sample_due |= access.sample_due | pmu_.Tick(PmuEvent::kLoads);
        sample_addr = addr;
        uint64_t value = 0;
        switch (in.xop) {
          case ExecOp::kLoad1:
            value = mem_.Read<uint8_t>(addr);
            break;
          case ExecOp::kLoad4:
            value = static_cast<uint64_t>(static_cast<int64_t>(mem_.Read<int32_t>(addr)));
            break;
          default:
            value = mem_.Read<uint64_t>(addr);
            break;
        }
        r[in.dst] = value;
        break;
      }
      case ExecOp::kStore8: {
        const VAddr addr = r[in.rb] + in.payload;
        access = AccessData(addr);
        cycles += access.numa_penalty;  // The store buffer hides the cache latency.
        sample_due |= access.sample_due;
        sample_addr = addr;  // PEBS records store addresses too (cache-miss profiles).
        mem_.Write<uint64_t>(addr, r[in.ra]);
        break;
      }
      case ExecOp::kBr:
        off = in.lo();
        break;
      case ExecOp::kCondBr: {
        const bool taken = r[in.ra] != 0;
        if (predictor_.Branch(ip, taken)) {
          cycles += BranchPredictor::kMissPenalty;
          sample_due |= pmu_.Tick(PmuEvent::kBranchMiss);
        }
        off = taken ? in.lo() : in.hi();
        break;
      }
      case ExecOp::kCall: {
        const FuncInfo& callee = code_map_.function(in.lo());
        const MArg* args = call_args + in.hi();
        const size_t num_args = in.num_args();
        uint64_t arg_values[kNumPhysRegs];
        for (size_t i = 0; i < num_args; ++i) {
          switch (args[i].kind) {
            case MArg::Kind::kReg:
              arg_values[i] = r[args[i].value];
              break;
            case MArg::Kind::kSpill:
              cycles += BaseCost(Opcode::kLoadSpill);
              arg_values[i] = fr->spills[args[i].value];
              break;
            case MArg::Kind::kImm:
              arg_values[i] = args[i].value;
              break;
          }
        }
        ++stats_.calls;
        fr->off = off;  // Suspends this frame: the callee's call stacks read its call site.
        if (callee.is_host) {
          // Retire the call before running the host body so that host-side samples observe a
          // consistent clock.
          ++instrs;
          ++pending;
          if (store()) {
            TakeSample(ip, 0, DataAccess());
          }
          const uint64_t result =
              callee.host(*this, std::span<const uint64_t>(arg_values, num_args));
          // `fr` may be dangling if the host function re-entered the VCPU; re-resolve.
          fr = &frames_.back();
          r = fr->regs.data();
          r[in.dst] = result;
          cycles = cycles_;
          instrs = stats_.instructions;
          budget = pmu_.InstrRetiredBudget();
          continue;  // Already retired.
        }
        DFP_CHECK(frames_.size() < kMaxStackDepth);
        Frame frame = EnterFrame(callee);
        frame.ret_dst = in.dst;
        std::copy(arg_values, arg_values + num_args, frame.regs.begin());
        frame.regs[kTagReg] = r[kTagReg];  // After the arguments: a 16th cannot clobber the tag.
        frames_.push_back(std::move(frame));
        activate();
        stats_.max_stack_depth = std::max<uint64_t>(stats_.max_stack_depth, frames_.size());
        break;
      }
      case ExecOp::kRetReg:
      case ExecOp::kRetImm: {
        const uint64_t value = in.xop == ExecOp::kRetImm ? in.payload : r[in.ra];
        const uint64_t tag = r[kTagReg];
        const uint8_t ret_dst = fr->ret_dst;
        frames_.pop_back();
        if (frames_.size() <= stop_depth) {
          // The frame Run was entered with returned; the tag goes to the frame below, if any.
          (frames_.empty() ? tag_reg_ : frames_.back().regs[kTagReg]) = tag;
          ret_value_ = value;
          ++instrs;
          ++pending;
          if (store()) {
            TakeSample(ip, 0, DataAccess());
          }
          return;
        }
        activate();
        r[kTagReg] = tag;
        r[ret_dst] = value;
        break;
      }
      case ExecOp::kGetTag:
        r[in.dst] = r[kTagReg];
        break;
      case ExecOp::kSetTagReg:
        r[kTagReg] = r[in.ra];
        break;
      case ExecOp::kSetTagImm:
        r[kTagReg] = in.payload;
        break;
      case ExecOp::kLoadSpill:
        r[in.dst] = fr->spills[in.payload];
        break;
      case ExecOp::kStoreSpill:
        fr->spills[in.payload] = r[in.ra];
        break;
    }

    ++instrs;
    if (++pending == budget || sample_due) {
      if (store() || sample_due) {
        const bool memory = in.xop >= ExecOp::kLoad1 && in.xop <= ExecOp::kStore8;  // Contiguous.
        TakeSample(ip, memory ? sample_addr : 0, memory ? access : DataAccess());
        cycles = cycles_;
      }
      budget = pmu_.InstrRetiredBudget();
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
    if (frames_.empty()) {
      sample.regs[kTagReg] = tag_reg_;
    } else {
      std::copy_n(frames_.back().regs.begin(), sample.regs.size(), sample.regs.begin());
    }
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
