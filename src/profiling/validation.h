// Accuracy validation (paper Section 6.3): tag EVERY generated instruction and cross-check the
// sampled instruction pointer's attribution against the tag register, sample by sample.
#ifndef DFP_SRC_PROFILING_VALIDATION_H_
#define DFP_SRC_PROFILING_VALIDATION_H_

#include <cstdint>
#include <vector>

#include "src/profiling/session.h"
#include "src/profiling/tagging_dictionary.h"
#include "src/vcpu/minstr.h"

namespace dfp {

// Rewrites machine code so that every instruction with a uniquely-owned IR id is preceded by a
// SetTag of its task. Branch targets are fixed up. Used when
// ProfilingConfig::tag_all_instructions is set.
std::vector<MInstr> ApplyValidationTags(std::vector<MInstr> code,
                                        const TaggingDictionary& dictionary);

struct ValidationReport {
  uint64_t checked = 0;     // Samples with both an IP attribution and a tag to compare.
  uint64_t mismatches = 0;  // IP-derived task != tag-register task.
};

// Compares IP-based attribution against the tag register for all resolved samples of a session
// whose query was compiled with tag_all_instructions.
ValidationReport CrossCheckAttribution(const ProfilingSession& session, const CodeMap& code_map);

// Same cross-check, split by the worker that took each sample: index w holds worker w's report.
// The vector covers session.worker_count() workers (one entry for single-threaded runs), so a
// parallel run can assert zero mismatches on every worker, not just worker 0.
std::vector<ValidationReport> CrossCheckAttributionPerWorker(const ProfilingSession& session,
                                                             const CodeMap& code_map);

}  // namespace dfp

#endif  // DFP_SRC_PROFILING_VALIDATION_H_
