// ShardedService: the multi-node query service — a coordinator over N shard QueryServices
// plus the hierarchical profile aggregation tree.
//
// Each shard runs an ordinary QueryService over its slice of the catalog
// (src/shard/partition.h); the coordinator classifies every submission:
//
//  - Fan-out. Plans scanning a range-partitioned fact table are decomposed
//    (src/shard/decompose.h): the rewritten partial plan is submitted to EVERY shard, and at
//    drain time the coordinator's tagged Merge operator (src/shard/merge.h) recombines the
//    partials — staging remote cells across the shard fabric (CROSS_NODE PMU events, `X`-token
//    samples) — into a result bit-identical to the unsharded engine's.
//  - Routed. Plans over replicated tables only run whole on the shard picked by the
//    structural fingerprint (structure % shards), so repeated submissions of one family land
//    on one shard's plan cache.
//
// Two invariants make the whole construction deterministic and exact:
//
//  - Plans are BUILT against every shard database on every submission, even when all but one
//    copy is discarded: plan construction interns strings, and the shard heaps must replay
//    identical intern sequences to keep packed string references — in plans, results, and
//    recorded traces — valid on every shard (src/shard/partition.h).
//  - Each shard's drain is a pure function of that shard's own submission sequence, and
//    pending-ticket resolution (merges included) runs serially in submission order after every
//    shard has drained, so the coordinator's clocks, samples, and profiles are a pure function
//    of the submission sequence, exactly like a single QueryService. Shards drain concurrently
//    on host threads; that is exact because a shard drain shares no mutable state with another
//    (audited when the drain went parallel):
//      - a shard's QueryService::Drain touches only its own Database (VMem, CodeMap, string
//        heap), plan cache and controllers;
//      - continuous.regression_alert fires only from DetectRegressions, which stays serial;
//      - no sharded path attaches a TraceRecorder to a shard (ReplayTraceSharded assembles its
//        trace from coordinator tickets after each Drain);
//      - src/ has no mutable statics.
//
// Plan caches stay shard-local; the coordinator watches the (shared) catalog version and, when
// it moves, invalidates every shard's cache in the same submission step — the coordinated
// invalidation that keeps a fleet of caches coherent under DDL.
//
// The fleet profile is the root of the aggregation tree (src/shard/aggtree.h): shard-local
// ServiceProfiles + window rings roll up pairwise, with the coordinator contributing its own
// leaf carrying the Merge operator's samples per fan-out fingerprint — so fan-out overhead is
// visible in operator-level profiles next to ordinary plan operators.
//
// A 1-shard ShardedService is the degenerate tower: no merger, no staging regions, shard_id 0
// (no shard tokens in sample streams), every submission routed to shard 0 — byte-identical
// behavior to a plain QueryService over the same database and configuration.
#ifndef DFP_SRC_SHARD_COORDINATOR_H_
#define DFP_SRC_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/service/query_service.h"
#include "src/shard/aggtree.h"
#include "src/shard/decompose.h"
#include "src/shard/merge.h"
#include "src/shard/partition.h"

namespace dfp {

struct ShardServiceConfig {
  // Per-shard service configuration. The coordinator stamps parallel.shard_id (1-based; 0 in
  // the 1-shard degenerate case, keeping streams free of shard tokens) and clears state_path
  // on the copies it hands to shards beyond 0 (per-shard persistence would need per-shard
  // paths).
  ServiceConfig service;
  // Sampling of the coordinator's merge work. capture_address makes the staged-cell samples
  // carry the cross-node flag (`X` tokens).
  SamplingConfig merge_sampling;
};

// Extra-arena head room shard 0's DatabaseConfig needs: the per-session scratch slots of its
// own QueryService plus one staging ring per remote shard. Shards >= 1 need only the former.
uint64_t ShardArenaBytes(const ShardServiceConfig& config, uint32_t shards);

// Default merge-sampling configuration: enabled, address capture on (cross-node attribution).
SamplingConfig DefaultMergeSampling();

// One coordinator-level submission, resolved at Drain().
struct ShardTicket {
  TicketId id = 0;
  std::string name;
  TicketStatus status = TicketStatus::kQueued;
  PlanFingerprint fingerprint;  // Fingerprint of the ORIGINAL (undecomposed) plan.
  bool fanout = false;
  uint32_t owner_shard = 0;                // Routed queries: the executing shard.
  std::vector<TicketId> shard_tickets;     // Sub-ticket per shard (fan-out) or owner only.
  Result result;
  uint64_t compile_cycles = 0;  // Max across shards (they compile concurrently).
  uint64_t execute_cycles = 0;  // Max shard execute + coordinator merge.
  uint64_t merge_cycles = 0;
  uint64_t staged_bytes = 0;
};

class ShardedService {
 public:
  // Builds a plan for one shard's database. Called once per shard per submission (see the
  // intern-sequence invariant above).
  using PlanBuilder = std::function<PhysicalOpPtr(Database&)>;

  ShardedService(ShardCatalog& catalog, ShardServiceConfig config = ShardServiceConfig());

  // Enqueues a query; classification (fan-out vs routed) happens here, execution at Drain().
  TicketId Submit(const std::string& name, const PlanBuilder& build,
                  uint64_t deadline_cycles = 0, uint32_t weight = 1);
  // Same with pre-built per-shard plans (plans.size() == shards()); the replay path uses this
  // to bind recorded literals itself.
  TicketId SubmitPlans(const std::string& name, std::vector<PhysicalOpPtr> plans,
                       uint64_t deadline_cycles = 0, uint32_t weight = 1);

  // Drains every shard, concurrently on min(shards, hardware threads) host threads (the calling
  // thread is one of them, so a 1-shard service spawns none; the others run on the calling
  // thread's other allowed CPUs), then resolves tickets serially in submission order: fan-out
  // merges run here, on the coordinator's clock. An exception from a shard's drain is rethrown
  // after every thread has joined (the lowest shard's, if several), and the pending tickets
  // stay unresolved.
  void Drain();

  const ShardTicket& ticket(TicketId id) const { return *tickets_[id - 1]; }
  size_t ticket_count() const { return tickets_.size(); }

  uint32_t shards() const { return catalog_.shards(); }
  QueryService& shard(uint32_t s) { return *shards_[s]; }
  const QueryService& shard(uint32_t s) const { return *shards_[s]; }

  // Aggregation-tree root over all shard leaves plus the coordinator's Merge-operator leaf.
  FleetAggregate AggregateFleet() const;

  // Fleet-wide regression sweep: snapshots every shard's baseline / diffs every shard's
  // windows in shard order. Findings carry the owning shard's 1-based shard_id (0 in the
  // 1-shard degenerate case), so a fleet alert sink can name the regressed node.
  void SnapshotBaselines();
  std::vector<RegressionFinding> DetectRegressions() const;

  // Coordinator telemetry.
  uint64_t fanout_queries() const { return fanout_queries_; }
  uint64_t routed_queries() const { return routed_queries_; }
  uint64_t coordinated_invalidations() const { return coordinated_invalidations_; }
  uint64_t cross_node_bytes() const { return cross_node_bytes_; }
  uint64_t merge_sample_count() const { return merge_sample_total_; }
  // Merge-side PMU counters / NUMA stats (zero-valued defaults in the 1-shard case).
  const PmuCounters& coordinator_counters() const;
  const NumaStats& coordinator_numa_stats() const;

 private:
  struct PendingQuery {
    TicketId id = 0;
    MergeRecipe recipe;  // Fan-out only.
  };

  TicketId SubmitClassified(const std::string& name, std::vector<PhysicalOpPtr> plans,
                            uint64_t deadline_cycles, uint32_t weight);
  void CheckCatalogVersion();

  ShardCatalog& catalog_;
  ShardServiceConfig config_;
  std::vector<std::unique_ptr<QueryService>> shards_;
  std::unique_ptr<ShardMerger> merger_;  // Null in the 1-shard degenerate case.
  std::vector<std::unique_ptr<ShardTicket>> tickets_;
  std::vector<PendingQuery> pending_;  // Submission order; resolved and cleared by Drain().
  uint64_t seen_catalog_version_ = 0;

  // Coordinator leaf of the aggregation tree: Merge-operator samples per fan-out fingerprint.
  struct MergeLeafEntry {
    std::string name;
    uint64_t samples = 0;
    uint64_t merge_cycles = 0;
  };
  std::map<uint64_t, MergeLeafEntry> merge_leaf_;

  uint64_t fanout_queries_ = 0;
  uint64_t routed_queries_ = 0;
  uint64_t coordinated_invalidations_ = 0;
  uint64_t cross_node_bytes_ = 0;
  uint64_t merge_sample_total_ = 0;
};

}  // namespace dfp

#endif  // DFP_SRC_SHARD_COORDINATOR_H_
