// Classifier-driven placement repair: the guarded closed-loop action that turns a
// remote-DRAM-bound verdict into a column re-partition.
//
// When the roofline classifier labels a fingerprint's scan pipeline remote-DRAM-bound, the
// scan's workers spend a reclaimable share of their cycles pulling rows across the
// interconnect — the default equal-share range partition put the rows on nodes other than the
// ones that actually consume them (stealing, round-robin dealing, or a skewed morsel-size
// profile shifted consumption). The repair re-partitions the offending table's column extents
// toward the consumers: the observed DAG says which worker ran each morsel, so each row range
// is assigned to that worker's node (ComputeConsumerPlacement) and the map is installed as a
// VMem placement override — the NumaMap of every later run resolves ownership by it, exactly
// like a page migration that leaves virtual addresses intact. The deal rule deliberately does
// NOT follow the override: a repair moves data toward the (fixed, canonically dealt)
// consumers, so a wrong map stays observably wrong and the guard below can catch it.
//
// The action is guarded, not trusted: the service snapshots a baseline before applying,
// re-measures on the windows that arrive after, and keeps or reverts by the regression
// detector's verdict (src/continuous/regression.h GuardVerdict). Every transition —
// decided, applied, kept, reverted — lands in the sample stream as a `sched` line and in
// the tier-timeline-style rendering below.
#ifndef DFP_SRC_SERVICE_PLACEMENT_REPAIR_H_
#define DFP_SRC_SERVICE_PLACEMENT_REPAIR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/critpath/dag.h"
#include "src/vcpu/vmem.h"

namespace dfp {

// Consumer-directed partition map for one scanned table: each morsel row range of `pipeline`'s
// tasks in `dag` goes to the node of the worker that executed it (worker id modulo `nodes` —
// the executor's pinning rule), consecutive same-node ranges compressed into one slice.
// `pessimize` rotates every slice one node over — deliberately wrong placement, used by tests
// and benches to inject a regression the guard must catch and revert. Returns an empty map
// when the pipeline has no morsel tasks.
PartitionMap ComputeConsumerPlacement(const TaskDag& dag, uint32_t pipeline, uint32_t nodes,
                                      bool pessimize = false);

// Lifecycle of one repair action. kDecided is transient (verdict seen, override installed in
// the same step); a kept or reverted action stays in the log as the audit trail and blocks
// re-triggering on the same fingerprint.
enum class RepairState : uint8_t {
  kDecided,   // Remote-DRAM-bound verdict accepted; re-partition chosen.
  kApplied,   // Override installed; re-measuring against the pre-apply baseline.
  kKept,      // Guard verdict clean: the re-partition stays.
  kReverted,  // Guard verdict regressed: override removed, default placement restored.
};

const char* RepairStateName(RepairState state);

struct RepairAction {
  uint64_t fingerprint = 0;
  std::string plan_name;
  std::string table;       // Name of the re-partitioned table.
  uint32_t pipeline = 0;   // The scan pipeline whose verdict triggered the action.
  RepairState state = RepairState::kDecided;
  uint64_t decided_tsc = 0;
  uint64_t applied_tsc = 0;
  uint64_t resolved_tsc = 0;  // Kept/reverted timestamp; 0 while still measuring.
  PartitionMap placement;     // The installed map (kept for the revert and the report).
};

// Append-only audit log of repair actions, one open action per fingerprint at a time.
class RepairLog {
 public:
  RepairAction& Add(RepairAction action);
  // The action for `fingerprint`, regardless of state; nullptr when none was ever decided.
  // One action per fingerprint: a kept action needs no second repair, a reverted one proved
  // the repair wrong — either way the loop must not oscillate.
  RepairAction* Find(uint64_t fingerprint);
  const RepairAction* Find(uint64_t fingerprint) const;

  const std::vector<RepairAction>& actions() const { return actions_; }
  uint64_t applied() const;   // Actions currently applied or kept.
  uint64_t reverted() const;  // Actions the guard rolled back.

 private:
  std::vector<RepairAction> actions_;
};

// Tier-timeline-style rendering: one line per action with its transitions and slice count.
std::string RenderRepairTimeline(const RepairLog& log);

}  // namespace dfp

#endif  // DFP_SRC_SERVICE_PLACEMENT_REPAIR_H_
