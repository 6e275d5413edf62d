#include "src/vcpu/code_map.h"

#include "src/util/check.h"

namespace dfp {

uint32_t CodeMap::AddSegment(SegmentKind kind, std::string name, std::vector<MInstr> code) {
  DFP_CHECK(code.size() < kSegmentSpacing);
  CodeSegment segment;
  segment.id = static_cast<uint32_t>(segments_.size());
  segment.kind = kind;
  segment.name = std::move(name);
  segment.base_ip = (static_cast<uint64_t>(segment.id) + 1) * kSegmentSpacing;
  segment.code = std::move(code);
  segments_.push_back(std::move(segment));
  return segments_.back().id;
}

uint32_t CodeMap::AddHostSegment(SegmentKind kind, std::string name, uint64_t virtual_size) {
  DFP_CHECK(virtual_size > 0 && virtual_size < kSegmentSpacing);
  CodeSegment segment;
  segment.id = static_cast<uint32_t>(segments_.size());
  segment.kind = kind;
  segment.name = std::move(name);
  segment.base_ip = (static_cast<uint64_t>(segment.id) + 1) * kSegmentSpacing;
  segment.virtual_size = virtual_size;
  segments_.push_back(std::move(segment));
  return segments_.back().id;
}

uint32_t CodeMap::AddFunction(std::string name, uint32_t segment, uint32_t entry,
                              uint16_t spill_slots, uint8_t num_args) {
  DFP_CHECK(segment < segments_.size());
  FuncInfo info;
  info.name = std::move(name);
  info.id = static_cast<uint32_t>(functions_.size());
  info.segment = segment;
  info.entry = entry;
  info.spill_slots = spill_slots;
  info.num_args = num_args;
  functions_.push_back(std::move(info));
  return functions_.back().id;
}

uint32_t CodeMap::AddHostFunction(std::string name, uint32_t segment, HostFn fn,
                                  uint8_t num_args) {
  DFP_CHECK(segment < segments_.size());
  FuncInfo info;
  info.name = std::move(name);
  info.id = static_cast<uint32_t>(functions_.size());
  info.segment = segment;
  info.num_args = num_args;
  info.host = std::move(fn);
  info.is_host = true;
  functions_.push_back(std::move(info));
  return functions_.back().id;
}

const CodeSegment* CodeMap::FindByIp(uint64_t ip) const {
  uint64_t index = ip / kSegmentSpacing;
  if (index == 0 || index > segments_.size()) {
    return nullptr;
  }
  const CodeSegment& segment = segments_[index - 1];
  if (ip - segment.base_ip >= segment.SizeIps()) {
    return nullptr;
  }
  return &segment;
}

}  // namespace dfp
