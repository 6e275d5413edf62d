#include "src/service/plan_cache.h"

namespace dfp {

uint64_t EstimateCompileCycles(const CompiledQuery& query, const CompileCostModel& model,
                               PlanTier tier) {
  const bool baseline = tier == PlanTier::kBaseline;
  uint64_t cycles = baseline ? model.baseline_base_cycles : model.base_cycles;
  const uint64_t per_ir = baseline ? model.baseline_per_ir_instr : model.per_ir_instr;
  const uint64_t per_machine =
      baseline ? model.baseline_per_machine_instr : model.per_machine_instr;
  for (const PipelineArtifact& artifact : query.pipelines) {
    cycles += per_ir * artifact.stats.ir_instrs;
    cycles += per_machine * artifact.stats.machine_instrs;
  }
  return cycles;
}

uint64_t CompiledCodeBytes(const CompiledQuery& query, const CodeMap& code_map) {
  // The simulator's machine instructions are fixed-width; model them at 8 bytes each, the
  // ballpark of a compact x86-64 encoding with operands.
  constexpr uint64_t kBytesPerInstr = 8;
  uint64_t bytes = 0;
  for (const PipelineArtifact& artifact : query.pipelines) {
    bytes += code_map.segment(artifact.segment).code.size() * kBytesPerInstr;
  }
  return bytes;
}

CachedPlanPtr PlanCache::Lookup(const PlanFingerprint& fingerprint) {
  auto it = entries_.find(KeyOf(fingerprint));
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  return it->second.entry;
}

CachedPlanPtr PlanCache::Peek(const PlanFingerprint& fingerprint) const {
  auto it = entries_.find(KeyOf(fingerprint));
  return it == entries_.end() ? nullptr : it->second.entry;
}

void PlanCache::Insert(CachedPlanPtr entry) {
  const Key key = KeyOf(entry->fingerprint);
  auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    // Recompiled while an equivalent entry exists (e.g. two cold submissions raced through
    // admission). Keep the newer artifact and fold the older one's budget back.
    stats_.resident_code_bytes -= existing->second.entry->code_bytes;
    lru_.erase(existing->second.lru_position);
    entries_.erase(existing);
  }
  stats_.resident_code_bytes += entry->code_bytes;
  lru_.push_front(key);
  entries_[key] = Slot{std::move(entry), lru_.begin()};
  stats_.resident_entries = entries_.size();

  while (stats_.resident_code_bytes > kCodeBudgetBytes && entries_.size() > 1) {
    const Key victim = lru_.back();
    auto it = entries_.find(victim);
    stats_.resident_code_bytes -= it->second.entry->code_bytes;
    lru_.pop_back();
    entries_.erase(it);
    ++stats_.evictions;
  }
  stats_.resident_entries = entries_.size();
}

void PlanCache::InvalidateAll() {
  stats_.invalidations += entries_.size();
  entries_.clear();
  lru_.clear();
  stats_.resident_entries = 0;
  stats_.resident_code_bytes = 0;
}

}  // namespace dfp
