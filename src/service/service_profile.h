// Fleet-level profile aggregation: folding every execution's resolved samples into
// per-fingerprint cumulative statistics.
//
// The paper frames Tailored Profiling as an always-on production facility (§5.2: per-core perf
// buffers, decoupled post-processing). This is the decoupled side at service scale: each query
// execution's resolved samples are folded into its plan fingerprint's running totals — operator
// costs, cache hit/miss counts, and the compile-vs-execute cycle split — and the whole profile
// round-trips through the same line-oriented text format as the Tagging Dictionary and sample
// dumps, so a fleet profile written by a serving process can be analyzed offline.
#ifndef DFP_SRC_SERVICE_SERVICE_PROFILE_H_
#define DFP_SRC_SERVICE_SERVICE_PROFILE_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/continuous/guard.h"
#include "src/continuous/regression.h"
#include "src/continuous/window.h"
#include "src/engine/exec_plan.h"
#include "src/profiling/session.h"
#include "src/service/fingerprint.h"

namespace dfp {

class SlackStore;     // src/critpath/slack.h — expected-slack persistence.
class CardStore;      // src/reopt/cardstore.h — measured-cardinality persistence.
struct ReoptPayload;  // src/reopt/controller.h — re-optimization audit trail entries.

struct FleetOperatorCost {
  OperatorId op = kNoOperator;
  std::string label;
  uint64_t samples = 0;
};

// Cumulative statistics of one plan fingerprint (one prepared-statement family).
struct FleetPlanProfile {
  uint64_t fingerprint = 0;  // Structural hash (literal bindings aggregate together).
  std::string name;          // Name of the first query seen with this fingerprint.
  uint64_t executions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t compile_cycles = 0;  // Cold compilations + warm lookup costs.
  uint64_t execute_cycles = 0;  // Summed per-execution simulated wall clocks.
  uint64_t samples = 0;
  // Critical-path rollup (src/critpath/): cumulative critical-path work across executions, the
  // last execution's top per-pipeline criticality share (percent), and the most recent
  // bottleneck verdict of that top pipeline ("compute-bound", "remote-dram-bound", ...).
  // `bottleneck` stays empty until a critical-path analysis is recorded.
  uint64_t critical_cycles = 0;
  uint64_t top_share_pct = 0;
  std::string bottleneck;
  std::map<OperatorId, FleetOperatorCost> operators;
};

// One row of the hottest-operators-across-the-fleet report.
struct FleetHotspot {
  std::string plan_name;
  std::string op_label;
  uint64_t samples = 0;
  double share = 0;  // Of all operator-attributed samples across the fleet.
};

class ServiceProfile {
 public:
  // Records one trip through the plan cache (hit or cold compile) for `fingerprint`.
  void RecordCompile(const PlanFingerprint& fingerprint, const std::string& name,
                     uint64_t compile_cycles, bool cache_hit);

  // Folds one execution's per-operator aggregation into the fingerprint's totals — callers
  // that also feed a WindowedProfile build the OperatorProfile once and hand it to both,
  // keeping the two views in agreement.
  void RecordExecution(const PlanFingerprint& fingerprint, const CompiledQuery& query,
                       const OperatorProfile& profile, uint64_t execute_cycles);

  // Folds one execution's critical-path analysis into the fingerprint: adds the critical-path
  // work and overwrites the latest top-pipeline share and bottleneck label (the fleet view
  // reports the current verdict, not a history).
  void RecordCriticality(const PlanFingerprint& fingerprint, const std::string& name,
                         uint64_t critical_work_cycles, uint64_t top_share_pct,
                         const std::string& bottleneck);

  const std::map<uint64_t, FleetPlanProfile>& plans() const { return plans_; }
  uint64_t total_operator_samples() const { return total_operator_samples_; }

  // The K hottest operators across all fingerprints, by cumulative samples (ties broken by
  // fingerprint then operator id, so the report is deterministic).
  std::vector<FleetHotspot> TopOperators(size_t k) const;

  // Renders the fleet report: per-fingerprint summary plus the top-K table.
  std::string Render(size_t top_k = 10) const;

  // Used by ReadServiceProfile to reconstitute a profile; cross-plan totals are rebuilt as
  // entries load (per-plan sample counts derive from the op lines). Each returns false,
  // loading nothing, when its plan, operator or criticality is already loaded.
  bool AddLoadedPlan(FleetPlanProfile plan);
  bool AddLoadedOperator(uint64_t fingerprint, FleetOperatorCost cost);
  bool AddLoadedCriticality(uint64_t fingerprint, uint64_t critical_cycles,
                            uint64_t top_share_pct, const std::string& bottleneck);

 private:
  FleetPlanProfile& PlanFor(const PlanFingerprint& fingerprint, const std::string& name);

  std::map<uint64_t, FleetPlanProfile> plans_;
  uint64_t total_compile_cycles_ = 0;
  uint64_t total_execute_cycles_ = 0;
  uint64_t total_operator_samples_ = 0;
};

// Line-oriented text format, in the family of WriteDictionary/WriteSamples (§5.2 decoupling).
// Next to the cumulative per-plan counters it carries the windowed fleet profile and, in a
// state file, everything a restarting service needs to resume where it left off: the service
// clock, the frozen regression baselines, the expected-slack store the slack-directed
// scheduler and deadline admission read (src/critpath/slack.h), and the measured-cardinality
// store and re-optimization audit trail (src/reopt/):
//   # dfp service profile v7
//   windowcfg <width-cycles>
//   plan <fingerprint-hex> <executions> <hits> <misses> <compile-cycles> <execute-cycles> <name...>
//   op <fingerprint-hex> <operator-id> <samples> <label...>
//   crit <fingerprint-hex> <critical-cycles> <top-share-pct> <bottleneck>
//   window <fingerprint-hex> <index> <executions> <samples> <execute-cycles> <rows> <loads>
//          <l1> <l2> <l3> <remote> <lat-p50> <lat-p95> <lat-max> <baseline-executions>
//          <baseline-samples>
//   wop <fingerprint-hex> <window-index> <operator-id> <samples> <sample-cycles> <label...>
//   clock <service-clock-cycles>
//   baseline <fingerprint-hex> <samples> <watermark> <cycles-per-row> <remote-share> <name...>
//   bop <fingerprint-hex> <operator-id> <samples> <sample-cycles> <label...>
//   slackgen <store-generation>
//   slack <fingerprint-hex> <executions> <generation> <critical-path-cycles> <name...>
//   slackstep <fingerprint-hex> <step> <pipeline> <rows> <b0> ... <b15>
//   cardgen <store-generation>
//   cardplan <fingerprint-hex> <executions> <generation> <name...>
//   card <fingerprint-hex> <operator-id> <observed-rows> <estimated-rows> <executions>
//        <generation>
//   reopt <fingerprint-hex> <state> <decided-tsc> <applied-tsc> <resolved-tsc>
//         <divergence-pct> <reordered> <semi-join> <name...>
// WriteServiceProfile writes the lines up to `wop`; a state file goes on from `clock`. A
// plan's crit line follows its op lines once a critical-path analysis was recorded.
// Fingerprints are 16 lowercase hex digits (src/util/text_format.h).
void WriteServiceProfile(const ServiceProfile& profile, const WindowedProfile& windows,
                         std::ostream& out);

// Persistence writer: WriteServiceProfile's lines plus the service clock, the regression
// baselines, and — for each store passed — the slack, cardinality, and re-optimization lines.
// This is everything QueryService saves on shutdown and restores on start.
void WriteServiceState(const ServiceProfile& profile, const WindowedProfile& windows,
                       const BaselineStore& baselines, uint64_t service_clock_cycles,
                       std::ostream& out, const SlackStore* slack = nullptr,
                       const CardStore* cards = nullptr,
                       const GuardLog<ReoptPayload>* reopts = nullptr);

// Inverse of WriteServiceProfile/WriteServiceState. When `windows` is non-null, window lines
// are reconstituted into it (it keeps its configured ring bound; the file's windowcfg line
// restores the writer's configuration first). `baselines` and `service_clock_cycles`, when
// non-null, receive the regression baselines and service clock; `slack`, when non-null,
// receives the expected-slack store (including its generation clock, so age-out resumes where
// the writer left off); `cards` and `reopts`, when non-null, receive the cardinality store and
// re-optimization audit trail (loaded actions carry no replaced entry — the cache is cold — so
// an applied action resolves as reverted at its next completion). Throws dfp::Error on
// malformed input, on any header but v7, and — when loading `reopts` — on a second reopt line
// for one fingerprint.
ServiceProfile ReadServiceProfile(std::istream& in, WindowedProfile* windows = nullptr,
                                  BaselineStore* baselines = nullptr,
                                  uint64_t* service_clock_cycles = nullptr,
                                  SlackStore* slack = nullptr, CardStore* cards = nullptr,
                                  GuardLog<ReoptPayload>* reopts = nullptr);

}  // namespace dfp

#endif  // DFP_SRC_SERVICE_SERVICE_PROFILE_H_
