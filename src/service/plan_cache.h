// Bounded LRU cache of compiled query artifacts, keyed by plan fingerprint.
//
// A cache entry owns everything lowering steps 2-3 produced for a plan — the compiled pipelines
// (whose machine code stays registered in the global code map), the state-block layout, the
// Tagging Dictionary snapshot, and the execution schedule — so a hit skips IR generation and
// backend compilation entirely and adds zero new code-segment bytes. Entries are handed out as
// shared_ptrs: an entry evicted while a session still executes it stays alive until the session
// finishes.
//
// Eviction is LRU under a fixed code-memory budget (the paper's always-on production framing:
// generated code is a resource to manage, not a one-shot byproduct). Catalog changes
// invalidate the whole cache; the catalog version is also mixed into every fingerprint, so a
// stale entry could never be looked up again anyway — invalidation just reclaims its budget.
#ifndef DFP_SRC_SERVICE_PLAN_CACHE_H_
#define DFP_SRC_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/exec_plan.h"
#include "src/profiling/tagging_dictionary.h"
#include "src/service/fingerprint.h"
#include "src/tiering/literals.h"
#include "src/tiering/tier.h"
#include "src/vcpu/code_map.h"

namespace dfp {

// Deterministic model of compilation cost in simulated cycles, covering the three lowering
// steps of Figure 8 with an optimizing backend. Calibrated to the tens of milliseconds an
// LLVM-style -O2 pipeline spends on a TPC-H query (HyPer/Umbra-reported range) — the regime
// where compilation dominates short queries and a plan cache pays for itself. A fast baseline
// backend (Umbra's "flying start") would shrink per_ir_instr by two orders of magnitude.
struct CompileCostModel {
  uint64_t base_cycles = 2'000'000;      // Plan lowering, module setup, schedule construction.
  uint64_t per_ir_instr = 60'000;        // IR generation + optimization passes (superlinear in
                                         // reality; linearized over our compact VIR).
  uint64_t per_machine_instr = 15'000;   // Instruction selection, regalloc, encoding.
  uint64_t cache_lookup_cycles = 5'000;  // Fingerprint walk + probe, charged on a hit.
  // Baseline tier (optimization passes disabled — Umbra's "flying start" regime): lowering and
  // setup still happen, but the pass pipeline, the dominant per-instruction cost, is skipped.
  uint64_t baseline_base_cycles = 800'000;
  uint64_t baseline_per_ir_instr = 12'000;
  uint64_t baseline_per_machine_instr = 6'000;
  // Re-binding a cached artifact to new literals: one immediate write per relocation site.
  uint64_t patch_per_site_cycles = 2'000;
};

uint64_t EstimateCompileCycles(const CompiledQuery& query, const CompileCostModel& model,
                               PlanTier tier = PlanTier::kOptimized);

// Simulated bytes of generated machine code registered for `query` (the quantity the cache
// budget bounds).
uint64_t CompiledCodeBytes(const CompiledQuery& query, const CodeMap& code_map);

// One cached compiled plan. `query.session` is always null: the compile-time session's
// Tagging Dictionary moves here, and every execution's session shares it (through an aliasing
// shared_ptr to the entry) instead of copying it, so profiles of warm hits resolve exactly like
// the cold run's. The dictionary is never modified after the compile.
struct CachedPlan {
  PlanFingerprint fingerprint;
  std::string name;  // Name of the first query compiled into this entry.
  CompiledQuery query;
  TaggingDictionary dictionary;
  uint64_t catalog_version = 0;
  uint64_t code_bytes = 0;
  uint64_t compile_cycles = 0;
  // Tiering (src/tiering/): the backend tier this entry's code was compiled at, and — in
  // parameterized mode — the literal bindings its immediates currently hold. `fingerprint`
  // tracks the bindings: after a patch, `fingerprint.literals` is the served query's hash.
  PlanTier tier = PlanTier::kOptimized;
  PlanLiterals literals;
  // Re-optimization (src/reopt/): a rewritten candidate extracts its literals in rewritten
  // plan order, but incoming submissions of the family still bind in the original plan's
  // order. This maps the entry's literal slot j to the submission slot it reads (possibly
  // duplicating one, e.g. a semi-join reduction's cloned keys). Empty = identity.
  std::vector<uint32_t> literal_permutation;
};

using CachedPlanPtr = std::shared_ptr<CachedPlan>;

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t resident_entries = 0;
  uint64_t resident_code_bytes = 0;
  // Parameterized mode only: hits served by patching immediates (subset of `hits`), and
  // background optimizing-tier recompilations swapped in by the tier controller.
  uint64_t patched_hits = 0;
  uint64_t tier_swaps = 0;
};

// Budget over the cache's resident generated machine-code bytes.
inline constexpr uint64_t kCodeBudgetBytes = 1ull << 20;

class PlanCache {
 public:
  // In parameterized mode (tiering enabled) entries key on (structure, pinned): one entry
  // serves every literal binding of a plan family, and a Lookup hit may require patching
  // (caller compares `fingerprint.literals`). Otherwise the key is (structure, literals) and
  // hits are always exact — the historical behavior, bit-for-bit.
  explicit PlanCache(bool parameterized) : parameterized_(parameterized) {}

  // Returns the entry for `fingerprint` (bumping it to most-recently-used and counting a hit),
  // or null (counting a miss).
  CachedPlanPtr Lookup(const PlanFingerprint& fingerprint);

  // Same resolution as Lookup but without touching the stats or the LRU order — for admission
  // checks that may defer (and later re-issue the real Lookup).
  CachedPlanPtr Peek(const PlanFingerprint& fingerprint) const;

  // Inserts a freshly compiled entry as most-recently-used, then evicts least-recently-used
  // entries until the resident code size fits the budget (the newest entry itself is never
  // evicted: caching it is what the caller just paid for).
  void Insert(CachedPlanPtr entry);

  // Drops every entry (catalog/schema change).
  void InvalidateAll();

  // Counts a Lookup hit that was served by patching (parameterized mode).
  void NotePatchedHit() { ++stats_.patched_hits; }
  // Counts a background tier swap (Insert with the recompiled entry performs the swap itself).
  void NoteTierSwap() { ++stats_.tier_swaps; }

  const PlanCacheStats& stats() const { return stats_; }

 private:
  using Key = std::pair<uint64_t, uint64_t>;  // (structure, literals) or (structure, pinned).

  struct Slot {
    CachedPlanPtr entry;
    std::list<Key>::iterator lru_position;
  };

  Key KeyOf(const PlanFingerprint& fingerprint) const {
    return {fingerprint.structure, parameterized_ ? fingerprint.pinned : fingerprint.literals};
  }

  bool parameterized_;
  std::map<Key, Slot> entries_;
  std::list<Key> lru_;  // Front = most recently used.
  PlanCacheStats stats_;
};

}  // namespace dfp

#endif  // DFP_SRC_SERVICE_PLAN_CACHE_H_
