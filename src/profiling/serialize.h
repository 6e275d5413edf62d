// Serialization of profiling meta-data and samples.
//
// The paper's prototype writes the Tagging Dictionary to a meta-data file at the end of
// compilation and feeds samples through `perf script` into a decoupled post-processing phase.
// These functions provide the same decoupling: a dictionary and a sample stream written by one
// process can be resolved by another (or archived next to a recorded profile). Each format has
// one version; a reader refuses any other header (src/util/text_format.h).
#ifndef DFP_SRC_PROFILING_SERIALIZE_H_
#define DFP_SRC_PROFILING_SERIALIZE_H_

#include <iosfwd>
#include <vector>

#include "src/pmu/sample.h"
#include "src/profiling/tagging_dictionary.h"

namespace dfp {

// Line-oriented text format:
//   # dfp tagging dictionary v1
//   task <task-id> <operator-id> <name...>
//   link <ir-id> <task-id> [<task-id>...]
void WriteDictionary(const TaggingDictionary& dictionary, std::ostream& out);

// Inverse of WriteDictionary. Throws dfp::Error on malformed input.
TaggingDictionary ReadDictionary(std::istream& in);

// perf-script-like sample dump:
//   # dfp samples v8
//   task <start-tsc> <end-tsc> <worker> <kind> <step> <pipeline> <morsel-begin> <morsel-end>
//        <stolen> <instrs> <loads> <l1-miss> <l2-miss> <l3-miss> <remote-dram>
//   sample <tsc> <ip> <addr> [W <worker>] [N <node> <remote> | X <machine-node>] [T] [G <tier>]
//          [D <shard>] [R <16 register values>] [S <depth> <return-ips...>]
// A sample's optional tokens appear only when they differ from the default: W off worker 0, N
// for a known home node or a remote access, X instead of N for a cross-machine access (the
// node is then the owning machine), T for a stolen morsel, G for a non-optimized tier, D off
// shard 0. Task lines are the executor's task boundaries in execution order, the raw material
// of the per-query task DAG (src/critpath/); they form a block right after the header (they
// are a schedule, not a sample timeline). A session id is never written: dumped streams are
// per-session by construction (see src/pmu/sample.h).
void WriteSamples(const std::vector<Sample>& samples, std::ostream& out,
                  const std::vector<TaskBoundary>& tasks = {});

// Inverse of WriteSamples. Throws dfp::Error on malformed input and on any header but v8.
// Task lines are appended to `tasks` in stream order; a stream that carries them is rejected
// when read without a sink, rather than losing them silently.
std::vector<Sample> ReadSamples(std::istream& in, std::vector<TaskBoundary>* tasks = nullptr);

}  // namespace dfp

#endif  // DFP_SRC_PROFILING_SERIALIZE_H_
