// Pipelines of tasks (lowering step 1) and the execution schedule of a compiled query.
//
// The dataflow graph is split at its tuple materialization points into pipelines; each operator
// contributes one or more tasks to the pipelines it participates in (a join contributes a Build
// task to one pipeline and a Probe task to another). Task creation populates the Tagging
// Dictionary's Log A through the operator Abstraction Tracker.
#ifndef DFP_SRC_ENGINE_EXEC_PLAN_H_
#define DFP_SRC_ENGINE_EXEC_PLAN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/backend/compiler.h"
#include "src/backend/emitter.h"
#include "src/ir/instr.h"
#include "src/ir/printer.h"
#include "src/plan/physical.h"
#include "src/profiling/tagging_dictionary.h"

namespace dfp {

struct PipelineStep {
  enum class Role : uint8_t {
    kScanSource,
    kFilter,
    kMap,
    kBuild,              // Hash join build side.
    kProbe,              // Hash join probe (inner/semi/anti via op->join_type).
    kGroupByAggregate,   // Group-by input side: lookup-or-insert + aggregate update.
    kGroupScanSource,    // Group-by output side: scan the hash table.
    kGroupJoinBuild,     // GroupJoin build side: insert groups.
    kGroupJoinProbe,     // GroupJoin probe side: lookup + aggregate update.
    kGroupJoinScanSource,
    kSortMaterialize,
    kSortScanSource,
    kLimit,
    kOutput,             // ResultSink materialization.
  };

  Role role = Role::kScanSource;
  PhysicalOp* op = nullptr;
  TaskId task = kNoTask;
  // GroupJoin probe only: the aggregation section's task (the probe section uses `task`);
  // this is how the fused operator's sections stay distinguishable (paper Section 5.4).
  TaskId task2 = kNoTask;
};

struct Pipeline {
  uint32_t id = 0;
  std::string name;
  std::vector<PipelineStep> steps;  // steps[0] is the source.
};

// Purposes of per-operator state slots (8 bytes each, in the query state block).
enum class StateSlot : uint8_t {
  kHashTable,    // Hash table address (join/group-by/groupjoin).
  kBufferBase,   // Sort buffer base.
  kBufferCount,  // Sort buffer row count.
  kLimitCounter,
  kOutBase,   // Result buffer base.
  kOutCount,  // Result row count.
};

// One host-driver action of the execution schedule.
struct ExecStep {
  enum class Kind : uint8_t { kCreateHashTable, kAllocBuffer, kRunPipeline, kSort };

  Kind kind = Kind::kRunPipeline;
  const PhysicalOp* op = nullptr;
  uint32_t pipeline = 0;  // kRunPipeline.
  // kCreateHashTable.
  uint64_t ht_capacity = 0;
  uint64_t ht_payload_bytes = 0;
  // kAllocBuffer.
  uint64_t buffer_bytes = 0;
  // kSort.
  uint32_t sort_spec = 0;
  // State slot offsets this step writes/reads.
  uint32_t state_offset0 = 0;  // HT addr / buffer base.
  uint32_t state_offset1 = 0;  // Buffer count.
};

// Everything produced by compiling one query.
struct PipelineArtifact {
  Pipeline pipeline;
  uint32_t function = 0;  // Global function id of the compiled pipeline.
  uint32_t segment = 0;
  IrFunction ir;  // Optimized VIR, retained for annotated listings (Figure 6b).
  IrListing listing;
  CompileStats stats;
  // Relocation table for literal-parameterized reuse (filled when compiled with
  // CodegenOptions::literals): every machine-code position holding a plan literal.
  std::vector<LiteralSite> literal_sites;

  explicit PipelineArtifact(IrFunction ir_function) : ir(std::move(ir_function)) {}
};

class ProfilingSession;

struct CompiledQuery {
  PhysicalOpPtr plan;
  std::vector<PipelineArtifact> pipelines;
  std::vector<ExecStep> exec_steps;
  uint64_t state_bytes = 0;
  std::vector<OutputColumn> output_schema;
  uint64_t output_row_size = 0;
  uint32_t out_base_offset = 0;
  uint32_t out_count_offset = 0;
  ProfilingSession* session = nullptr;  // Borrowed; may be null.
  std::string name;
  // Compiled in morsel-parallel mode (CodegenOptions::parallel): pipeline functions take
  // (state, morsel_begin, morsel_end) and must run through QueryEngine::ExecuteParallel.
  bool parallel = false;

  // Per-task tuple counter state slots (filled when compiled with count_tuples) and the counts
  // read back after the most recent execution.
  std::vector<std::pair<TaskId, uint32_t>> tuple_count_slots;
  std::unordered_map<TaskId, uint64_t> tuple_counts;

  // Total generated VIR instructions (storage experiment, Section 6.2).
  uint64_t TotalIrInstrs() const {
    uint64_t total = 0;
    for (const PipelineArtifact& artifact : pipelines) {
      total += artifact.stats.ir_instrs;
    }
    return total;
  }
};

}  // namespace dfp

#endif  // DFP_SRC_ENGINE_EXEC_PLAN_H_
