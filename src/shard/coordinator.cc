#include "src/shard/coordinator.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "src/util/check.h"

namespace dfp {

uint64_t ShardArenaBytes(const ShardServiceConfig& config, uint32_t shards) {
  // Shard databases share one DatabaseConfig (the heap-replication invariant), so the extra
  // arena is sized for the hungriest shard: shard 0 hosts its service's session slots AND one
  // staging ring per remote shard.
  uint64_t bytes = ServiceArenaBytes(config.service);
  if (shards > 1) {
    bytes += static_cast<uint64_t>(shards - 1) * kMergeStageBytes;
  }
  return bytes;
}

SamplingConfig DefaultMergeSampling() {
  SamplingConfig sampling;
  sampling.enabled = true;
  sampling.event = PmuEvent::kCrossNode;
  sampling.period = 64;
  sampling.capture_address = true;  // Samples carry the cross-node flag (`X` tokens).
  return sampling;
}

ShardedService::ShardedService(ShardCatalog& catalog, ShardServiceConfig config)
    : catalog_(catalog), config_(std::move(config)) {
  shards_.reserve(catalog_.shards());
  for (uint32_t s = 0; s < catalog_.shards(); ++s) {
    ServiceConfig shard_config = config_.service;
    // 1-based shard ids stamp samples; the 1-shard degenerate case keeps id 0 so its streams
    // stay byte-identical to an unsharded service's.
    shard_config.parallel.shard_id = catalog_.shards() > 1 ? s + 1 : 0;
    if (s > 0) {
      shard_config.state_path.clear();
    }
    shards_.push_back(std::make_unique<QueryService>(catalog_.db(s), shard_config));
  }
  if (catalog_.shards() > 1) {
    merger_ = std::make_unique<ShardMerger>(catalog_, config_.merge_sampling);
  }
  seen_catalog_version_ = catalog_.catalog_version();
}

void ShardedService::CheckCatalogVersion() {
  if (catalog_.catalog_version() == seen_catalog_version_) {
    return;
  }
  // Coordinated invalidation: the catalog moved (DDL), so every shard-local plan cache is
  // dropped in the same submission step — no shard may serve a stale artifact.
  for (auto& shard : shards_) {
    shard->InvalidateCache();
  }
  seen_catalog_version_ = catalog_.catalog_version();
  ++coordinated_invalidations_;
}

TicketId ShardedService::Submit(const std::string& name, const PlanBuilder& build,
                                uint64_t deadline_cycles, uint32_t weight) {
  // Build against EVERY shard database, even though routed queries discard all but one copy:
  // plan construction interns strings, and the shard heaps must replay identical intern
  // sequences to keep packed references aligned across shards (src/shard/partition.h).
  std::vector<PhysicalOpPtr> plans;
  plans.reserve(catalog_.shards());
  for (uint32_t s = 0; s < catalog_.shards(); ++s) {
    plans.push_back(build(catalog_.db(s)));
  }
  return SubmitClassified(name, std::move(plans), deadline_cycles, weight);
}

TicketId ShardedService::SubmitPlans(const std::string& name, std::vector<PhysicalOpPtr> plans,
                                     uint64_t deadline_cycles, uint32_t weight) {
  DFP_CHECK(plans.size() == catalog_.shards());
  return SubmitClassified(name, std::move(plans), deadline_cycles, weight);
}

TicketId ShardedService::SubmitClassified(const std::string& name,
                                          std::vector<PhysicalOpPtr> plans,
                                          uint64_t deadline_cycles, uint32_t weight) {
  CheckCatalogVersion();
  auto ticket = std::make_unique<ShardTicket>();
  ticket->id = static_cast<TicketId>(tickets_.size() + 1);
  ticket->name = name;
  ticket->fingerprint = FingerprintPlan(*plans[0], catalog_.catalog_version());

  PendingQuery pending;
  pending.id = ticket->id;
  if (catalog_.shards() > 1 && PlanTouchesPartitionedTable(*plans[0])) {
    // Fan-out: the same recipe is valid for every shard (identical plan shapes), derived once
    // from shard 0's copy.
    ticket->fanout = true;
    pending.recipe = BuildMergeRecipe(*plans[0]);
    for (uint32_t s = 0; s < catalog_.shards(); ++s) {
      PhysicalOpPtr partial = BuildPartialPlan(*plans[s]);
      ticket->shard_tickets.push_back(
          shards_[s]->Submit(std::move(partial), name, deadline_cycles, weight));
    }
    ++fanout_queries_;
  } else {
    // Routed: replicated-table plans run whole on the fingerprint-picked shard, so one
    // prepared-statement family keeps hitting one shard's plan cache.
    const uint32_t owner =
        catalog_.shards() > 1
            ? static_cast<uint32_t>(ticket->fingerprint.structure % catalog_.shards())
            : 0;
    ticket->owner_shard = owner;
    ticket->shard_tickets.push_back(
        shards_[owner]->Submit(std::move(plans[owner]), name, deadline_cycles, weight));
    ++routed_queries_;
  }
  pending_.push_back(std::move(pending));
  tickets_.push_back(std::move(ticket));
  return tickets_.back()->id;
}

void ShardedService::Drain() {
  // Shards share no mutable state (see the header), so they drain concurrently: the calling
  // thread and up to hardware_concurrency() - 1 helpers each take the next undrained shard.
  const uint32_t shards = catalog_.shards();
  const uint32_t threads = std::min(shards, std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<uint32_t> next_shard{0};
  std::vector<std::exception_ptr> errors(shards);
  const auto drain = [&] {
    for (uint32_t s = next_shard++; s < shards; s = next_shard++) {
      try {
        shards_[s]->Drain();
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
  };
  // A new thread starts on its creator's CPU, and a kernel that does not balance load (as in a
  // cpuset with sched_load_balance = 0) leaves it there, so each helper moves itself to the
  // calling thread's other allowed CPUs. A move that fails only costs parallelism.
  cpu_set_t other_cpus{};
  const int caller_cpu = sched_getcpu();
  const bool spread =
      caller_cpu >= 0 && sched_getaffinity(0, sizeof(other_cpus), &other_cpus) == 0;
  if (spread) {
    CPU_CLR(caller_cpu, &other_cpus);
  }
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (uint32_t t = 1; t < threads; ++t) {
      helpers.emplace_back([&] {
        if (spread) {
          pthread_setaffinity_np(pthread_self(), sizeof(other_cpus), &other_cpus);
        }
        drain();
      });
    }
    drain();
  }  // Joins the helpers, also when starting one threw.
  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);  // The lowest failed shard's exception.
    }
  }
  // Resolve in submission order: merges run serially on the coordinator's clock, so the
  // whole resolution pass is a pure function of the submission sequence.
  for (PendingQuery& pending : pending_) {
    ShardTicket& ticket = *tickets_[pending.id - 1];
    if (!ticket.fanout) {
      const QueryTicket& sub = shards_[ticket.owner_shard]->ticket(ticket.shard_tickets[0]);
      ticket.status = sub.status;
      ticket.result = sub.result;
      ticket.compile_cycles = sub.compile_cycles;
      ticket.execute_cycles = sub.execute_cycles;
      continue;
    }
    std::vector<Result> partials(catalog_.shards());
    uint64_t compile_max = 0;
    uint64_t execute_max = 0;
    bool all_done = true;
    TicketStatus worst = TicketStatus::kDone;
    for (uint32_t s = 0; s < catalog_.shards(); ++s) {
      const QueryTicket& sub = shards_[s]->ticket(ticket.shard_tickets[s]);
      if (sub.status != TicketStatus::kDone) {
        all_done = false;
        worst = sub.status;
        continue;
      }
      partials[s] = sub.result;
      compile_max = std::max(compile_max, sub.compile_cycles);
      execute_max = std::max(execute_max, sub.execute_cycles);
    }
    if (!all_done) {
      ticket.status = worst;
      continue;
    }
    MergeOutcome outcome = merger_->Merge(pending.recipe, partials);
    const std::vector<Sample> samples = merger_->TakeSamples();
    ticket.status = TicketStatus::kDone;
    ticket.result = std::move(outcome.result);
    ticket.compile_cycles = compile_max;
    // Shards execute concurrently; the merge starts when the slowest partial lands.
    ticket.execute_cycles = execute_max + outcome.merge_cycles;
    ticket.merge_cycles = outcome.merge_cycles;
    ticket.staged_bytes = outcome.staged_bytes;
    cross_node_bytes_ += outcome.staged_bytes;
    merge_sample_total_ += samples.size();

    MergeLeafEntry& leaf = merge_leaf_[ticket.fingerprint.structure];
    if (leaf.name.empty() || ticket.name < leaf.name) {
      leaf.name = ticket.name;
    }
    leaf.samples += samples.size();
    leaf.merge_cycles += outcome.merge_cycles;
  }
  pending_.clear();
}

FleetAggregate ShardedService::AggregateFleet() const {
  std::vector<FleetAggregate> leaves;
  leaves.reserve(shards_.size() + 1);
  for (const auto& shard : shards_) {
    leaves.push_back(BuildShardLeaf(shard->fleet_profile(), shard->windows()));
  }
  if (!merge_leaf_.empty()) {
    // The coordinator's own leaf: Merge-operator samples per fan-out fingerprint, so fan-out
    // overhead appears in operator-level profiles next to the plan's ordinary operators.
    FleetAggregate coordinator;
    coordinator.leaves = 1;
    for (const auto& [fingerprint, entry] : merge_leaf_) {
      FleetPlanRollup& rollup = coordinator.plans[fingerprint];
      rollup.fingerprint = fingerprint;
      rollup.name = entry.name;
      rollup.samples = entry.samples;
      rollup.execute_cycles = entry.merge_cycles;
      FleetOperatorCost& merge_op = rollup.operators[kMergeOperatorId];
      merge_op.op = kMergeOperatorId;
      merge_op.label = kMergeOperatorLabel;
      merge_op.samples = entry.samples;
    }
    leaves.push_back(std::move(coordinator));
  }
  return AggregateShards(std::move(leaves));
}

void ShardedService::SnapshotBaselines() {
  for (const auto& shard : shards_) {
    shard->SnapshotBaseline();
  }
}

std::vector<RegressionFinding> ShardedService::DetectRegressions() const {
  std::vector<RegressionFinding> findings;
  for (const auto& shard : shards_) {
    std::vector<RegressionFinding> local = shard->DetectRegressions();
    for (RegressionFinding& finding : local) {
      findings.push_back(std::move(finding));
    }
  }
  return findings;
}

const PmuCounters& ShardedService::coordinator_counters() const {
  static const PmuCounters kZero{};
  return merger_ != nullptr ? merger_->counters() : kZero;
}

const NumaStats& ShardedService::coordinator_numa_stats() const {
  static const NumaStats kZero{};
  return merger_ != nullptr ? merger_->numa_stats() : kZero;
}

}  // namespace dfp
