// Reproduces Figure 6a / Figure 9b (cost-annotated query plan) and Figure 6b (operator-annotated
// IR listing) for the paper's Figure 9 use-case query.
#include "bench/common.h"
#include "src/profiling/reports.h"
#include "src/util/chart.h"

namespace dfp {
namespace {

int Main() {
  PrintHeader("Per-operator cost profile of the Figure 9 query",
              "Figure 6a / Figure 9b (annotated plan), Figure 6b (annotated IR listing)");
  std::unique_ptr<Database> db = MakeTpchDatabase(BenchScale());
  QueryEngine engine(db.get());

  ProfilingConfig config;
  config.period = 5000;  // INST_RETIRED every 5000 events, as in the paper.
  ProfilingSession session(config);
  CompiledQuery query = engine.Compile(BuildFig9Plan(*db), &session, "fig9");
  Result result = engine.Execute(query);
  session.Resolve(db->code_map());

  std::printf("\nQuery: Select l_orderkey, avg(l_extendedprice) From lineitem, orders\n");
  std::printf("       Where o_orderdate < '1995-04-01' and o_orderkey = l_orderkey\n");
  std::printf("       Group By l_orderkey   (%zu result groups)\n\n", result.row_count());

  OperatorProfile profile = BuildOperatorProfile(session, query);
  std::printf("--- Figure 9b: query plan annotated with per-operator cost ---\n%s\n",
              RenderAnnotatedPlan(profile, query).c_str());

  std::vector<std::pair<std::string, double>> bars;
  for (const OperatorCost& cost : profile.operators) {
    bars.emplace_back(cost.label, cost.share);
  }
  std::printf("%s\n", RenderBarChart(bars, 40).c_str());

  // The probe pipeline (scan lineitem -> probe -> aggregate) is the interesting one: find the
  // pipeline whose source scans lineitem.
  uint32_t probe_pipeline = 0;
  for (const PipelineArtifact& artifact : query.pipelines) {
    if (artifact.pipeline.name.find("lineitem") != std::string::npos) {
      probe_pipeline = artifact.pipeline.id;
    }
  }
  std::printf("--- Figure 6b: probe pipeline IR annotated with samples and operators ---\n%s\n",
              RenderAnnotatedListing(session, query, probe_pipeline).c_str());

  std::printf("--- Attribution ---\n%s\n", RenderAttributionStats(session.Stats()).c_str());
  std::printf(
      "Expected shape (paper): aggregation >~ join >> scans; the directory-lookup load and the\n"
      "per-tuple divisions are the hottest lines of the probe pipeline.\n");
  return 0;
}

}  // namespace
}  // namespace dfp

int main(int argc, char** argv) {
  dfp::BenchInit(argc, argv);
  return dfp::Main();
}
