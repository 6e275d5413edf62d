// Replayer and what-if harness: the playback half of fleet record/replay.
//
// ReplayTrace reconstructs a recorded workload against a fresh QueryService: each recorded
// submission is rebuilt by cloning its structural fingerprint's plan template, re-binding the
// recorded literal bindings (src/tiering/literals.h BindLiterals), and re-finalizing — then
// submitted with the recorded weight and deadline at the recorded Drain() boundaries. The
// replay itself runs through a TraceRecorder, so it produces a second WorkloadTrace built by
// the exact code path that produced the first; DiffTraces turns the pair into a ReplayReport.
//
// Determinism contract (DESIGN.md §2f): the service is a pure function of (config, submission
// sequence). Replaying an unmodified build with identity knobs therefore reproduces the
// recording bit for bit — byte-identical sample streams, identical service profiles, identical
// tier timelines, an all-zero diff. Any deviation is a real behavior change, which is what the
// differential replay tests and the CI determinism job detect.
//
// A what-if answers a capacity question against recorded traffic without touching
// production. It is an edited copy of the recorded configuration: "what if tiering were off?"
// replays with `config = trace.knobs` and `config.tiering.enabled = false`. Load scaling is
// separate, because it changes the traffic rather than the service: "what breaks at 10x
// sessions?" is session_multiplier = 10 (admission rejections appear in the report).
#ifndef DFP_SRC_REPLAY_REPLAYER_H_
#define DFP_SRC_REPLAY_REPLAYER_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/replay/trace.h"

namespace dfp {

class ShardCatalog;  // src/shard/partition.h — sharded replays.

struct ReplayOptions {
  // The service configuration to replay under, reduced through CaptureKnobs: only knob-table
  // fields take effect. Unset = the trace's recorded knobs, the zero-diff identity replay. A
  // caller passing its own config sizes the Database for ServiceArenaBytes of it.
  std::optional<ServiceConfig> config;
  // Submit every recorded query this many times (same plan, same literals, back to back at its
  // recorded schedule position). Queue overflow then rejects naturally.
  uint32_t session_multiplier = 1;
  // When set, the recorded traffic re-runs against a ShardedService (src/shard/) over this
  // catalog, one shard per catalog shard, instead of a single QueryService. The catalog must
  // hold the SAME dataset and DatabaseConfig the trace was recorded against (the replayed
  // literal bindings carry packed string references, valid on the shard heaps through the
  // intern-replay invariant of src/shard/partition.h). Sharding re-partitions execution but
  // never results, so such a replay gates on results_diverged == 0 even though timing and
  // streams change; a recorded plan that cannot fan out exactly (src/shard/decompose.h) makes
  // the replay throw instead. Borrowed, not owned.
  ShardCatalog* shards = nullptr;
};

// One finished replay: the replayed run's own trace (recorded through the same TraceRecorder
// path, so each query's sample stream is there as its hash), plus the rendered service views
// the differential tests compare textually. The profile's `crit` lines fold every replayed
// query's task DAG.
struct ReplayRun {
  WorkloadTrace trace;
  std::string service_profile_text;  // WriteServiceProfile of the replay service.
  std::string tier_timeline_text;    // RenderTierTimeline of the replay service.
};

// Replays `trace` against `db` (or, with options.shards set, against that catalog). Throws
// dfp::Error when the catalog version does not match the recording, when a plan template is
// missing or malformed, when a rebuilt plan's fingerprint disagrees with the recorded one
// (corrupt or mismatched trace), when CheckServiceConfig refuses the replay config, or, in a
// sharded replay, when the fleet refuses a recorded plan it cannot fan out exactly.
ReplayRun ReplayTrace(Database& db, const WorkloadTrace& trace,
                      const ReplayOptions& options = {});

// Per-fingerprint recorded-vs-replayed comparison (latency quantiles, execution counts, top
// operator attribution). A fingerprint appearing on only one side gets zeros on the other.
struct ReplayFingerprintDiff {
  uint64_t structure = 0;
  std::string name;
  uint64_t recorded_executions = 0;
  uint64_t replayed_executions = 0;
  uint64_t recorded_execute_cycles = 0;
  uint64_t replayed_execute_cycles = 0;
  uint64_t recorded_p50 = 0;
  uint64_t replayed_p50 = 0;
  uint64_t recorded_p95 = 0;
  uint64_t replayed_p95 = 0;
  uint64_t recorded_max = 0;
  uint64_t replayed_max = 0;
  std::string recorded_top_operator;
  std::string replayed_top_operator;
  uint64_t recorded_top_samples = 0;
  uint64_t replayed_top_samples = 0;

  bool identical() const;
};

// The recorded-vs-replayed diff. `identical` is the zero-diff gate: every compared quantity —
// per-query outcomes and metrics, stream hashes, throughput, cache stats, tier timeline, and
// every fingerprint row — matched exactly.
struct ReplayReport {
  bool identical = false;
  bool knobs_identical = false;  // False when the replay ran under an edited config.
  uint32_t session_multiplier = 1;
  uint64_t recorded_queries = 0;
  uint64_t replayed_queries = 0;
  uint64_t recorded_completed = 0;
  uint64_t replayed_completed = 0;
  uint64_t recorded_rejected = 0;
  uint64_t replayed_rejected = 0;
  uint64_t recorded_timed_out = 0;
  uint64_t replayed_timed_out = 0;
  uint64_t recorded_cycles = 0;   // Service clock after the final drain.
  uint64_t replayed_cycles = 0;
  uint64_t recorded_samples = 0;
  uint64_t replayed_samples = 0;
  uint64_t recorded_cache_hits = 0;
  uint64_t replayed_cache_hits = 0;
  uint64_t recorded_patched_hits = 0;
  uint64_t replayed_patched_hits = 0;
  uint64_t recorded_tier_swaps = 0;
  uint64_t replayed_tier_swaps = 0;
  // Streams: the chained per-query stream hash matched (vacuously false when query counts
  // differ — a scaled what-if run compares throughput, not streams).
  bool streams_identical = false;
  // Seq-by-seq divergences, counted only when both sides saw the same query count.
  uint64_t queries_diverged = 0;
  uint64_t results_diverged = 0;  // Subset of the above: result row counts differed.
  bool tiers_identical = false;
  std::vector<ReplayFingerprintDiff> fingerprints;  // Ascending by structure.
};

ReplayReport DiffTraces(const WorkloadTrace& recorded, const WorkloadTrace& replayed);

// Human-readable rendering of the report.
std::string RenderReplayReport(const ReplayReport& report);

// Deterministic JSON (fixed key order; integers, booleans, and escaped strings only) — the
// CI determinism job diffs two of these byte for byte.
void WriteReplayReportJson(const ReplayReport& report, std::ostream& out);

}  // namespace dfp

#endif  // DFP_SRC_REPLAY_REPLAYER_H_
