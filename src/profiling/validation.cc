#include "src/profiling/validation.h"

#include <algorithm>

#include "src/util/check.h"

namespace dfp {

std::vector<MInstr> ApplyValidationTags(std::vector<MInstr> code,
                                        const TaggingDictionary& dictionary) {
  // Decide which instructions receive a preceding tag write.
  std::vector<bool> tagged(code.size(), false);
  for (size_t i = 0; i < code.size(); ++i) {
    const std::vector<TaskId>* owners = dictionary.TasksOf(code[i].ir_id);
    tagged[i] = owners != nullptr && owners->size() == 1 && !code[i].is_tag;
  }
  // Offsets of each old instruction in the rewritten stream (pointing at its tag when present,
  // so branch targets land on the tag write).
  std::vector<uint32_t> new_offset(code.size() + 1, 0);
  uint32_t cursor = 0;
  for (size_t i = 0; i < code.size(); ++i) {
    new_offset[i] = cursor;
    cursor += tagged[i] ? 2 : 1;
  }
  new_offset[code.size()] = cursor;

  std::vector<MInstr> out;
  out.reserve(cursor);
  for (size_t i = 0; i < code.size(); ++i) {
    if (tagged[i]) {
      const std::vector<TaskId>* owners = dictionary.TasksOf(code[i].ir_id);
      MInstr tag;
      tag.op = Opcode::kSetTag;
      tag.a_is_imm = true;
      tag.imm = static_cast<int64_t>(owners->front()) + 1;
      tag.is_tag = true;
      tag.ir_id = code[i].ir_id;
      out.push_back(tag);
    }
    MInstr instr = std::move(code[i]);
    if (instr.op == Opcode::kBr || instr.op == Opcode::kCondBr) {
      instr.target0 = new_offset[instr.target0];
      if (instr.op == Opcode::kCondBr) {
        instr.target1 = new_offset[instr.target1];
      }
    }
    out.push_back(std::move(instr));
  }
  return out;
}

namespace {

// Classifies one sample into `report`: checked/mismatch when both an IP attribution and a tag
// are available. Samples outside generated code, on multi-owner instructions, or taken before
// the first tag write (the function prologue) are not checked.
void CrossCheckOne(const ProfilingSession& session, const CodeMap& code_map,
                   const Sample& sample, ValidationReport* report) {
  const CodeSegment* segment = code_map.FindByIp(sample.ip);
  if (segment == nullptr || segment->kind != SegmentKind::kGenerated ||
      !sample.has_registers) {
    return;
  }
  const std::vector<TaskId>* owners =
      session.dictionary().TasksOf(segment->ir_ids[sample.ip - segment->base_ip]);
  if (owners == nullptr || owners->size() != 1) {
    return;
  }
  const uint64_t tag = sample.regs[kTagRegister] & 0xFFFFFFFFull;  // Task-level chunk.
  if (tag == 0) {
    return;
  }
  ++report->checked;
  if (tag != static_cast<uint64_t>(owners->front()) + 1) {
    ++report->mismatches;
  }
}

}  // namespace

ValidationReport CrossCheckAttribution(const ProfilingSession& session,
                                       const CodeMap& code_map) {
  ValidationReport report;
  for (const Sample& sample : session.samples()) {
    CrossCheckOne(session, code_map, sample, &report);
  }
  return report;
}

std::vector<ValidationReport> CrossCheckAttributionPerWorker(const ProfilingSession& session,
                                                             const CodeMap& code_map) {
  std::vector<ValidationReport> reports(std::max<uint32_t>(1, session.worker_count()));
  for (const Sample& sample : session.samples()) {
    const size_t worker = std::min<size_t>(reports.size() - 1, sample.worker_id);
    CrossCheckOne(session, code_map, sample, &reports[worker]);
  }
  return reports;
}

}  // namespace dfp
