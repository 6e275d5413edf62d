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
// The action is guarded, not trusted: it runs the decided -> applied -> kept/reverted lifecycle
// of src/continuous/guard.h — the service snapshots a baseline as it applies the map,
// re-measures on the windows that arrive after, and keeps or reverts by the regression
// detector's verdict. The service's GuardLog<RepairPayload> is the one record of every
// transition; RenderGuardTimeline renders it.
#ifndef DFP_SRC_SERVICE_PLACEMENT_REPAIR_H_
#define DFP_SRC_SERVICE_PLACEMENT_REPAIR_H_

#include <cstdint>
#include <string>

#include "src/continuous/guard.h"
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

// Payload of a placement-repair guarded action (src/continuous/guard.h). Reverting clears the
// table's extent placement, restoring the default equal-share partition.
struct RepairPayload {
  static constexpr const char* kName = "repair";
  static constexpr const char* kNone = "placement repairs";

  std::string table;       // Name of the re-partitioned table.
  uint32_t pipeline = 0;   // The scan pipeline whose verdict triggered the action.
  PartitionMap placement;  // The installed map.

  // "pipeline <n> table <name> <slices> slice(s)".
  std::string Detail() const;
};

}  // namespace dfp

#endif  // DFP_SRC_SERVICE_PLACEMENT_REPAIR_H_
