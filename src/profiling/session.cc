#include "src/profiling/session.h"

#include <algorithm>

namespace dfp {

SamplingConfig MakeSamplingConfig(const ProfilingConfig& config) {
  SamplingConfig sampling;
  sampling.enabled = config.enable_sampling;
  sampling.event = config.event;
  sampling.period = config.period;
  sampling.capture_address = config.capture_address;
  sampling.capture_registers = config.attribution == AttributionMode::kRegisterTagging ||
                               config.tag_all_instructions;
  sampling.capture_callstack = config.attribution == AttributionMode::kCallStack;
  return sampling;
}

ProfilingSession::ProfilingSession(ProfilingConfig config) : config_(config) {}

std::unique_ptr<const ProfilingSession> ProfilingSession::Resolved(
    ProfilingConfig config, std::shared_ptr<const TaggingDictionary> dictionary,
    std::vector<Sample> samples, uint64_t cycles, PmuCounters counters, uint32_t worker_count,
    const CodeMap& code_map) {
  auto session = std::make_unique<ProfilingSession>(config);
  session->shared_ = std::move(dictionary);
  session->RecordExecution(std::move(samples), cycles, counters, worker_count);
  session->Resolve(code_map);
  return session;
}

void ProfilingSession::RecordExecution(std::vector<Sample> samples, uint64_t cycles,
                                       PmuCounters counters, uint32_t worker_count) {
  samples_ = std::move(samples);
  execution_cycles_ = cycles;
  counters_ = counters;
  worker_count_ = worker_count;
  resolved_.clear();
  resolved_done_ = false;
}

void ProfilingSession::LoadForPostProcessing(TaggingDictionary dictionary,
                                             std::vector<Sample> samples, uint64_t cycles) {
  owned_ = std::move(dictionary);
  samples_ = std::move(samples);
  execution_cycles_ = cycles;
  // The pool size is not serialized; recover it from the sample stream.
  worker_count_ = 1;
  for (const Sample& sample : samples_) {
    worker_count_ = std::max(worker_count_, sample.worker_id + 1);
  }
  resolved_.clear();
  resolved_done_ = false;
}

void ProfilingSession::Resolve(const CodeMap& code_map) {
  if (resolved_done_) {
    return;
  }
  resolved_.clear();
  resolved_.reserve(samples_.size());
  for (const Sample& sample : samples_) {
    resolved_.push_back(ResolveOne(sample, code_map));
  }
  resolved_done_ = true;
}

ResolvedSample ProfilingSession::ResolveOne(const Sample& sample,
                                            const CodeMap& code_map) const {
  ResolvedSample out;
  out.tsc = sample.tsc;
  out.ip = sample.ip;
  out.addr = sample.addr;
  out.worker_id = sample.worker_id;
  out.mem_node = sample.mem_node;
  out.numa_remote = sample.numa_remote;
  out.stolen = sample.stolen;
  out.tier = sample.tier;
  const CodeSegment* segment = code_map.FindByIp(sample.ip);
  if (segment == nullptr) {
    return out;  // Unattributed.
  }
  out.segment = segment->id;

  // Task-level tag in the register's lower half; with packed_tags the operator tag sits in the
  // upper half (Section 4.2.5 chunking).
  const uint64_t task_tag =
      sample.has_registers ? (sample.regs[kTagRegister] & 0xFFFFFFFFull) : 0;
  const uint64_t op_tag =
      sample.has_registers && config_.packed_tags ? (sample.regs[kTagRegister] >> 32) : 0;
  const TaggingDictionary& dictionary = this->dictionary();
  const bool tag_valid = task_tag != 0 && task_tag <= dictionary.tasks().size();

  // Attributes a sample landing at generated query code via debug info and Log B.
  auto resolve_generated = [&](const CodeSegment& seg, uint64_t ip, ResolvedSample* dst) {
    const uint32_t ir_id = seg.ir_ids[ip - seg.base_ip];
    dst->ir_id = ir_id;
    const std::vector<TaskId>* owners = dictionary.TasksOf(ir_id);
    if (owners == nullptr || owners->empty()) {
      return false;
    }
    TaskId task = owners->front();
    if (owners->size() > 1) {
      // Multi-owner instruction (CSE / fusing across tasks): the tag register decides when
      // available, otherwise the first owner wins and the sample is flagged.
      if (tag_valid) {
        task = static_cast<TaskId>(task_tag - 1);
        dst->via_tag = true;
      } else {
        dst->ambiguous = true;
      }
    }
    dst->task = task;
    dst->op = dictionary.OperatorOf(task);
    dst->category = ResolvedSample::Category::kOperator;
    return true;
  };

  switch (segment->kind) {
    case SegmentKind::kGenerated:
      resolve_generated(*segment, sample.ip, &out);
      return out;

    case SegmentKind::kRuntime: {
      // Shared source location: disambiguate via the tag register (Register Tagging) or by
      // walking the call stack to the innermost generated-code frame.
      if (tag_valid) {
        out.task = static_cast<TaskId>(task_tag - 1);
        // With packed tags the operator comes straight from the register's upper half; without
        // packing it is looked up through Log A.
        out.op = op_tag != 0 ? static_cast<OperatorId>(op_tag - 1)
                             : dictionary.OperatorOf(out.task);
        out.category = ResolvedSample::Category::kOperator;
        out.via_tag = true;
        return out;
      }
      for (uint64_t caller_ip : sample.callstack) {
        const CodeSegment* caller = code_map.FindByIp(caller_ip);
        if (caller != nullptr && caller->kind == SegmentKind::kGenerated) {
          if (resolve_generated(*caller, caller_ip, &out)) {
            out.via_callstack = true;
            out.ir_id = kNoIrId;  // The sample itself is in runtime code.
          }
          return out;
        }
      }
      return out;  // Unattributed shared code.
    }

    case SegmentKind::kKernel:
      out.category = ResolvedSample::Category::kKernel;
      return out;

    case SegmentKind::kSyslib:
      return out;  // System libraries are not covered by tagging: unattributed.
  }
  return out;
}

AttributionStats ProfilingSession::Stats() const {
  AttributionStats stats;
  stats.total = resolved_.size();
  for (const ResolvedSample& sample : resolved_) {
    switch (sample.category) {
      case ResolvedSample::Category::kOperator:
        ++stats.operator_samples;
        break;
      case ResolvedSample::Category::kKernel:
        ++stats.kernel_samples;
        break;
      case ResolvedSample::Category::kUnattributed:
        ++stats.unattributed;
        break;
    }
    stats.ambiguous += sample.ambiguous;
    stats.via_tag += sample.via_tag;
    stats.via_callstack += sample.via_callstack;
  }
  return stats;
}

}  // namespace dfp
