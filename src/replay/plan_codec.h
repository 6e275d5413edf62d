// Text codec for physical plans: the piece of the trace format that makes recorded traffic
// self-contained.
//
// A workload trace (src/replay/trace.h) stores one serialized plan template per structural
// fingerprint; replaying a query clones the template and re-binds the recorded literals. The
// codec therefore must reproduce a finalized plan *exactly* — operator ids, bound rows, the
// optimizer's cardinality estimates (bit-exact doubles), expression trees, labels, table
// references — so that re-fingerprinting the parsed plan yields the recorded hash. Tables are
// serialized by catalog name and resolved against the replaying Database; everything else is
// value-serialized in the line-oriented style of the other dfp text formats.
#ifndef DFP_SRC_REPLAY_PLAN_CODEC_H_
#define DFP_SRC_REPLAY_PLAN_CODEC_H_

#include <string>

#include "src/engine/database.h"
#include "src/plan/physical.h"

namespace dfp {

// Writes `root` as a self-delimiting block of "op"/"x" lines terminated by "endplan".
std::string EncodePlanText(const PhysicalOp& root);

// Inverse of EncodePlanText: parses one plan block through its "endplan" terminator,
// resolving table references against `db`'s catalog. Throws dfp::Error on malformed input
// (an operator tree deeper than kMaxExprNesting or an expression more than one level higher
// than that included), unknown tables, or truncation.
PhysicalOpPtr ParsePlanText(const std::string& text, const Database& db);

}  // namespace dfp

#endif  // DFP_SRC_REPLAY_PLAN_CODEC_H_
