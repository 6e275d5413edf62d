// Canonical plan fingerprints for the compiled-plan cache and fleet profile aggregation.
//
// The structural half hashes the physical dataflow graph — operator kinds, column types, key
// slots, join types, sort specs, expression shapes — with every literal payload parameterized
// out, and mixes in the database's catalog version so schema changes retire old fingerprints.
// Queries that differ only in their constants (the classic prepared-statement family) therefore
// share a fingerprint, which is the unit of fleet-level profile aggregation.
//
// The literal half hashes exactly the parameterized-out payloads (filter constants, LIKE
// patterns, IN lists, LIMIT counts) along WalkLiterals (src/tiering/literals.h), the walk that
// also numbers the literal slots the tiered cache patches. The structural walk reads no
// payload. The classic plan cache keys on both halves: compiled machine code bakes constants
// in as immediates, so an artifact is only exactly reusable with identical constants.
//
// The pinned half hashes the subset of literals that the compiled artifact's *memory layout*
// depends on — today only LIMIT counts, which cap `bound_rows` and thereby size sort buffers
// and result arenas. The literal-parameterized cache (src/tiering/) keys on
// (structure, pinned): any free literal can be re-bound by patching immediates, but a plan
// with a different LIMIT needs a fresh compile.
#ifndef DFP_SRC_SERVICE_FINGERPRINT_H_
#define DFP_SRC_SERVICE_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "src/plan/physical.h"

namespace dfp {

struct PlanFingerprint {
  uint64_t structure = 0;  // Plan shape, literals parameterized out, catalog version mixed in.
  uint64_t literals = 0;   // The parameterized-out constant payloads, in literal-slot order.
  uint64_t pinned = 0;     // The layout-relevant subset of the literals (LIMIT counts).

  bool operator==(const PlanFingerprint& other) const {
    return structure == other.structure && literals == other.literals;
  }
  bool operator!=(const PlanFingerprint& other) const { return !(*this == other); }
};

PlanFingerprint FingerprintPlan(const PhysicalOp& root, uint64_t catalog_version);

// 16-hex-digit rendering of the structural half (the fleet aggregation key), as used by
// reports and the service-profile text format.
std::string FingerprintKey(const PlanFingerprint& fingerprint);

}  // namespace dfp

#endif  // DFP_SRC_SERVICE_FINGERPRINT_H_
