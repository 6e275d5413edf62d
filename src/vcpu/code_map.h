// Code segments, the global instruction-pointer space, and the function registry.
//
// Every piece of executable code — generated query pipelines, pre-compiled runtime functions,
// host-modeled kernel work, and untagged system-library work — occupies a segment with a disjoint
// IP range. Profiling samples carry global IPs; segment kind is the first step of bottom-up
// sample attribution (Table 2 of the paper distinguishes operator, kernel, and unattributed
// samples by exactly this classification).
#ifndef DFP_SRC_VCPU_CODE_MAP_H_
#define DFP_SRC_VCPU_CODE_MAP_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/vcpu/minstr.h"

namespace dfp {

class Cpu;

enum class SegmentKind : uint8_t {
  kGenerated,  // Query code produced by the compilation engine (covered by the dictionary).
  kRuntime,    // Pre-compiled VIR functions shared between operators (needs disambiguation).
  kKernel,     // Host-modeled engine work: sorting, allocation, data movement.
  kSyslib,     // Host-modeled system libraries: string routines. Not covered by tagging.
};

const char* SegmentKindName(SegmentKind kind);

struct CodeSegment {
  uint32_t id = 0;
  SegmentKind kind = SegmentKind::kGenerated;
  std::string name;
  uint64_t base_ip = 0;
  std::vector<MInstr> code;   // Empty for host-modeled segments.
  uint64_t virtual_size = 0;  // IP-range size for host-modeled segments.

  uint64_t SizeIps() const { return code.empty() ? virtual_size : code.size(); }
};

// A host function: runs C++ code on behalf of the VCPU, charging modeled costs via the Cpu's
// HostWork/HostLoad interfaces.
using HostFn = std::function<uint64_t(Cpu& cpu, std::span<const uint64_t> args)>;

struct FuncInfo {
  std::string name;
  uint32_t id = 0;
  uint32_t segment = 0;
  uint32_t entry = 0;         // Code offset of the entry point within the segment.
  uint16_t spill_slots = 0;   // Frame size for compiled functions.
  uint8_t num_args = 0;
  HostFn host;                // Set for host-modeled functions.
  bool is_host = false;
};

class CodeMap {
 public:
  // Registers a compiled-code segment; returns its id. `code` is moved in.
  uint32_t AddSegment(SegmentKind kind, std::string name, std::vector<MInstr> code);

  // Registers a host-modeled segment occupying `virtual_size` synthetic IPs.
  uint32_t AddHostSegment(SegmentKind kind, std::string name, uint64_t virtual_size);

  // Registers a compiled function whose code lives in `segment` at `entry`.
  uint32_t AddFunction(std::string name, uint32_t segment, uint32_t entry, uint16_t spill_slots,
                       uint8_t num_args);

  // Registers a host function backed by the given host segment.
  uint32_t AddHostFunction(std::string name, uint32_t segment, HostFn fn, uint8_t num_args);

  const CodeSegment* FindByIp(uint64_t ip) const;
  const CodeSegment& segment(uint32_t id) const { return segments_[id]; }
  CodeSegment& mutable_segment(uint32_t id) { return segments_[id]; }
  const FuncInfo& function(uint32_t id) const { return functions_[id]; }
  const std::vector<CodeSegment>& segments() const { return segments_; }
  const std::vector<FuncInfo>& functions() const { return functions_; }

 private:
  // Segments are spaced out in the IP space so that ranges never collide and an IP's segment is
  // recoverable by shifting.
  static constexpr uint64_t kSegmentSpacing = 1ull << 24;

  std::vector<CodeSegment> segments_;
  std::vector<FuncInfo> functions_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_CODE_MAP_H_
