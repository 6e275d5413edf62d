// TraceRecorder: the capture half of fleet record/replay.
//
// Attached to a fresh QueryService (QueryService::AttachRecorder), the recorder observes every
// submission, completion, and Drain() boundary and accumulates a WorkloadTrace: plan templates
// on first sight of a structural fingerprint, per-query literal bindings and arrival clocks,
// and per-completion metrics including an FNV-1a hash of the serialized sample stream.
// Finish() seals the trace with the fleet-level summary (throughput, cache stats, tier
// timeline, per-fingerprint latency quantiles and hottest operators) that a ReplayReport diffs
// against.
//
// Determinism contract: the service must be fresh (zero service clock, no prior tickets) when
// the recorder attaches — the service is a pure function of (config, submission sequence), so
// a trace replayed from sequence start against an equally fresh service reproduces every
// observation bit for bit. Attaching to a warmed-up service throws.
#ifndef DFP_SRC_REPLAY_RECORDER_H_
#define DFP_SRC_REPLAY_RECORDER_H_

#include <cstdint>

#include "src/replay/trace.h"

namespace dfp {

class TraceRecorder {
 public:
  // Hooks, invoked by QueryService (AttachRecorder / Submit / Drain / StepSession).
  void OnAttach(const ServiceConfig& config, uint64_t catalog_version, uint64_t now_cycles);
  void OnSubmit(const QueryTicket& ticket, const PhysicalOp& plan, uint64_t arrival_cycles);
  void OnDrain(uint32_t submissions_so_far);
  void OnCompletion(const QueryTicket& ticket);

  // Seals the trace with the fleet summary taken from `service` (the one recorded against,
  // after its final Drain). Returns the finished trace; `trace()` keeps exposing it.
  const WorkloadTrace& Finish(const QueryService& service);

  const WorkloadTrace& trace() const { return trace_; }

 private:
  WorkloadTrace trace_;
  bool attached_ = false;
};

}  // namespace dfp

#endif  // DFP_SRC_REPLAY_RECORDER_H_
