// The simulated CPU: executes machine code with a cycle cost model, drives the cache hierarchy,
// branch predictor, and PMU, and provides the host bridge for kernel/system-library work.
//
// Calls use register windows: each frame has its own 16-register file, except that register 15
// (the tag register) is architecturally global across frames — that property is what Register
// Tagging relies on to let samples taken inside shared callees observe the caller's identity.
// The active frame's r15 slot holds the tag: a call copies it into the callee and a return copies
// it back to the caller.
#ifndef DFP_SRC_VCPU_CPU_H_
#define DFP_SRC_VCPU_CPU_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/pmu/pmu.h"
#include "src/vcpu/branch_predictor.h"
#include "src/vcpu/cache.h"
#include "src/vcpu/code_map.h"
#include "src/vcpu/cost_model.h"
#include "src/vcpu/minstr.h"
#include "src/vcpu/numa.h"
#include "src/vcpu/vmem.h"

namespace dfp {

struct CpuStats {
  uint64_t instructions = 0;
  uint64_t calls = 0;
  uint64_t max_stack_depth = 0;
};

class Cpu {
 public:
  Cpu(VMem& mem, const CodeMap& code_map, Pmu& pmu);

  // Calls a function (compiled or host) and runs it to completion. Returns its result.
  uint64_t CallFunction(uint32_t func_id, std::span<const uint64_t> args);

  // Current timestamp counter (cycles since construction).
  uint64_t tsc() const { return cycles_; }

  VMem& mem() { return mem_; }
  const CodeMap& code_map() const { return code_map_; }
  const CacheHierarchy& cache() const { return cache_; }
  const CpuStats& stats() const { return stats_; }

  // Identity of this VCPU in a worker pool; stamped into every sample it takes.
  void set_worker_id(uint32_t id) { worker_id_ = id; }
  uint32_t worker_id() const { return worker_id_; }

  // Query session this VCPU is currently executing for (service layer); stamped into every
  // sample so concurrent sessions' streams can be demultiplexed. 0 outside the service.
  void set_session_id(uint32_t id) { session_id_ = id; }

  // Service shard this VCPU belongs to (1-based; 0 = unsharded). Stamped into every sample so
  // fan-out attribution survives the coordinator's fleet roll-up (the stream's `D` token).
  void set_shard_id(uint32_t id) { shard_id_ = id; }

  // Pins this VCPU to `node` of the topology described by `numa` (borrowed; must outlive the
  // CPU or be cleared). Null disables the NUMA model: flat memory, as on single-node runs.
  void ConfigureNuma(const NumaMap* numa, uint8_t node) {
    numa_ = numa;
    node_id_ = node;
  }
  uint8_t node_id() const { return node_id_; }
  const NumaStats& numa_stats() const { return numa_stats_; }

  // Marks the unit of work currently executing as stolen from another worker's deque; samples
  // taken while set carry the steal flag, making steal-induced remote traffic visible.
  void set_stolen_work(bool stolen) { stolen_work_ = stolen; }

  // --- Host bridge (used by kernel/syslib host functions) ---

  // Models `instrs` instructions of host work attributed to `segment_id`; advances the clock,
  // counts events, and emits samples with synthetic IPs inside the segment.
  void HostWork(uint32_t segment_id, uint64_t instrs);

  // Models one data load issued by host work: goes through the cache model and load events.
  void HostLoad(uint32_t segment_id, VAddr addr);

  // Adds raw cycles without events (e.g. fixed device latencies).
  void AddCycles(uint64_t cycles) { cycles_ += cycles; }

  // Return addresses of the currently suspended frames, innermost caller first (global IPs).
  std::vector<uint64_t> CaptureCallStack() const;

 private:
  struct Frame {
    const CodeSegment* seg = nullptr;
    uint32_t off = 0;  // Offset of the next instruction to execute.
    uint8_t ret_dst = kSinkSlot;
    std::array<uint64_t, kNumRegSlots> regs{};  // The registers, then the zero and sink slots.
    std::vector<uint64_t> spills;
  };

  static constexpr size_t kMaxStackDepth = 1024;

  // A fresh frame positioned at the entry of compiled function `func`.
  Frame EnterFrame(const FuncInfo& func) const;
  void Run(size_t stop_depth);
  // One data access as the cache hierarchy and the NUMA model served it.
  struct DataAccess {
    uint32_t latency = 0;       // Cycles the cache level that served it takes.
    uint32_t numa_penalty = 0;  // Remote-DRAM or cross-node cycles, paid on a miss to memory.
    uint8_t mem_node = kNoNumaNode;  // Sample fields: the owning node, remote, cross-node.
    bool remote = false;
    bool cross = false;
    bool sample_due = false;  // A miss or NUMA event reached its sampling period.
  };

  void TakeSample(uint64_t ip, uint64_t addr, DataAccess access);
  // Runs a data access through the cache hierarchy, ticks its miss events, and resolves its NUMA
  // placement: counts local/remote traffic and prices the remote-DRAM penalty when the access
  // missed to memory. Memory homed on another *machine node* (cross-node span) pays the fabric
  // penalty instead and ticks CROSS_NODE.
  DataAccess AccessData(VAddr addr);

  VMem& mem_;
  const CodeMap& code_map_;
  Pmu& pmu_;
  CacheHierarchy cache_;
  BranchPredictor predictor_;
  std::vector<Frame> frames_;
  uint64_t cycles_ = 0;
  uint64_t tag_reg_ = 0;  // The tag register while no frame is active.
  uint32_t worker_id_ = 0;
  uint32_t session_id_ = 0;
  uint32_t shard_id_ = 0;
  const NumaMap* numa_ = nullptr;
  uint8_t node_id_ = 0;
  bool stolen_work_ = false;
  NumaStats numa_stats_;
  uint64_t host_ip_counter_ = 0;
  uint64_t ret_value_ = 0;
  CpuStats stats_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_CPU_H_
