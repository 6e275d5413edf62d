#include "src/tiering/patch.h"

#include <vector>

#include "src/util/check.h"
#include "src/vcpu/code_map.h"

namespace dfp {

uint64_t PatchCachedPlan(Database& db, CachedPlan& entry, const PlanLiterals& incoming,
                         uint64_t incoming_literals_hash) {
  DFP_CHECK(PatchCompatible(entry.literals, incoming));

  // Resolve the new raw immediate of every slot whose binding changed. Pattern slots go through
  // the runtime: the code carries a registered pattern id, not the string.
  const size_t slots = entry.literals.bindings.size();
  std::vector<bool> changed(slots, false);
  std::vector<int64_t> new_imm(slots, 0);
  for (size_t i = 0; i < slots; ++i) {
    const LiteralBinding& have = entry.literals.bindings[i];
    const LiteralBinding& want = incoming.bindings[i];
    switch (have.kind) {
      case LiteralBinding::Kind::kValue:
        if (have.value != want.value) {
          changed[i] = true;
          new_imm[i] = want.value;
        }
        break;
      case LiteralBinding::Kind::kPattern:
        if (have.pattern != want.pattern) {
          changed[i] = true;
          new_imm[i] = static_cast<int64_t>(db.runtime().RegisterPattern(want.pattern));
        }
        break;
      case LiteralBinding::Kind::kLimit:
        DFP_CHECK(have.value == want.value);  // Pinned by the (structure, pinned) cache key.
        break;
    }
  }

  uint64_t written = 0;
  for (const PipelineArtifact& artifact : entry.query.pipelines) {
    CodeSegment& segment = db.code_map().mutable_segment(artifact.segment);
    for (const LiteralSite& site : artifact.literal_sites) {
      DFP_CHECK(site.slot < slots);
      if (!changed[site.slot]) {
        continue;
      }
      ExecInstr& instr = segment.code[site.code_offset];
      if (site.field == LiteralSite::Field::kImm) {
        DFP_CHECK(instr.HoldsImm());
        instr.payload = static_cast<uint64_t>(new_imm[site.slot]);
      } else {
        DFP_CHECK(site.arg_index < instr.num_args());
        MArg& arg = segment.call_args[instr.hi() + site.arg_index];
        DFP_CHECK(arg.kind == MArg::Kind::kImm);
        arg.value = static_cast<uint64_t>(new_imm[site.slot]);
      }
      ++written;
    }
  }

  // The entry now serves the incoming bindings. The incoming expr_slots map points into the
  // incoming plan (which the caller is free to destroy); only the bindings are retained.
  for (size_t i = 0; i < slots; ++i) {
    if (changed[i]) {
      LiteralBinding binding = incoming.bindings[i];
      if (binding.kind == LiteralBinding::Kind::kPattern) {
        binding.value = new_imm[i];  // Remember the registered id alongside the text.
      }
      entry.literals.bindings[i] = std::move(binding);
    }
  }
  entry.fingerprint.literals = incoming_literals_hash;
  return written;
}

}  // namespace dfp
