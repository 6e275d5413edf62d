// Reproduces the Section 6.3 accuracy validation:
//  - IP-vs-tag cross-check with every generated instruction tagged (paper: zero mismatches),
//  - TSC deltas between consecutive samples track the sampling period,
//  - memory-event samples point at load instructions,
// plus a summary of the optimization coverage from Table 1.
#include "bench/common.h"
#include "src/profiling/validation.h"
#include "src/util/table_printer.h"

namespace dfp {
namespace {

int Main() {
  PrintHeader("Attribution accuracy validation", "Section 6.3 + Table 1");
  std::unique_ptr<Database> db = MakeTpchDatabase(BenchScale(0.005));
  QueryEngine engine(db.get());

  TablePrinter table({"Query", "Checked", "Mismatches", "TSC mean delta", "Load-IP ok"});
  for (size_t c = 1; c <= 4; ++c) {
    table.SetRightAlign(c, true);
  }
  uint64_t total_checked = 0;
  uint64_t total_mismatches = 0;
  for (const QuerySpec& spec : TpchQuerySuite()) {
    // 1. Tag-all cross-check.
    ProfilingConfig config;
    config.period = 997;
    config.tag_all_instructions = true;
    ProfilingSession session(config);
    CompiledQuery query = engine.Compile(BuildQueryPlan(*db, spec), &session, spec.name);
    engine.Execute(query);
    session.Resolve(db->code_map());
    ValidationReport report = CrossCheckAttribution(session, db->code_map());
    total_checked += report.checked;
    total_mismatches += report.mismatches;

    // 2. TSC deltas (separate run with the paper's period of 5000).
    ProfilingConfig tsc_config;
    tsc_config.period = 5000;
    ProfilingSession tsc_session(tsc_config);
    CompiledQuery tsc_query =
        engine.Compile(BuildQueryPlan(*db, spec), &tsc_session, spec.name + "_tsc");
    engine.Execute(tsc_query);
    const std::vector<Sample>& samples = tsc_session.samples();
    double mean_delta = 0;
    if (samples.size() > 1) {
      mean_delta = static_cast<double>(samples.back().tsc - samples.front().tsc) /
                   static_cast<double>(samples.size() - 1);
    }

    // 3. Memory-event samples must point at load instructions.
    ProfilingConfig mem_config;
    mem_config.event = PmuEvent::kLoads;
    mem_config.period = 333;
    mem_config.capture_address = true;
    ProfilingSession mem_session(mem_config);
    CompiledQuery mem_query =
        engine.Compile(BuildQueryPlan(*db, spec), &mem_session, spec.name + "_mem");
    engine.Execute(mem_query);
    uint64_t load_samples = 0;
    uint64_t load_ip_ok = 0;
    for (const Sample& sample : mem_session.samples()) {
      const CodeSegment* segment = db->code_map().FindByIp(sample.ip);
      if (segment == nullptr || segment->code.empty()) {
        continue;  // Host-modeled segments have synthetic IPs.
      }
      ++load_samples;
      if (IsLoad(segment->code[sample.ip - segment->base_ip].op)) {
        ++load_ip_ok;
      }
    }
    table.AddRow({spec.name, StrFormat("%llu", static_cast<unsigned long long>(report.checked)),
                  StrFormat("%llu", static_cast<unsigned long long>(report.mismatches)),
                  StrFormat("%.0f cyc", mean_delta),
                  load_samples > 0 ? StrFormat("%llu/%llu",
                                               static_cast<unsigned long long>(load_ip_ok),
                                               static_cast<unsigned long long>(load_samples))
                                   : std::string("-")});
  }
  std::printf("\n%s\n", table.Render().c_str());
  std::printf("Total: %llu samples cross-checked, %llu mismatches (paper: none).\n",
              static_cast<unsigned long long>(total_checked),
              static_cast<unsigned long long>(total_mismatches));

  std::printf("\n--- Table 1: optimization transformations covered by the dictionary ---\n");
  std::printf("  Operator fusion                    supported (pipeline codegen, tested)\n");
  std::printf("  Instruction fusing                 supported (address folding + OnAbsorb)\n");
  std::printf("  Code elimination                   supported (DCE + OnRemove)\n");
  std::printf("  Constant folding                   supported (in-place fold, id preserved)\n");
  std::printf("  Common subexpression elimination   supported (local VN + OnAbsorb)\n");
  std::printf("  Dataflow graph operator fusion     supported (GroupJoin section tasks)\n");
  std::printf("  Loop unrolling & interleaving      not implemented (as in the paper's Umbra)\n");
  std::printf("  Polyhedral optimizations           not implemented (as in the paper's Umbra)\n");
  std::printf("  Heterogeneous accelerators         out of scope (as in the paper)\n");
  return total_mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dfp

int main(int argc, char** argv) {
  dfp::BenchInit(argc, argv);
  return dfp::Main();
}
