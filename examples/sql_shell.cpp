// Batch SQL shell over the TPC-H-style dataset: runs queries from the command line or stdin,
// optionally with a full Tailored Profiling report per query.
//
// Usage:
//   sql_shell [--scale S] [--profile] [--listing] ["SQL..." ...]
// Without SQL arguments, statements are read from stdin (semicolon- or newline-terminated).
// Meta commands: \tables, \suite (run the whole built-in query suite), \q.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "src/engine/query_engine.h"
#include "src/profiling/reports.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace {

using namespace dfp;

struct ShellOptions {
  double scale = 0.005;
  bool profile = false;
  bool listing = false;
};

void RunStatement(Database& db, QueryEngine& engine, const ShellOptions& options,
                  const std::string& sql) {
  try {
    std::unique_ptr<ProfilingSession> session;
    if (options.profile) {
      ProfilingConfig config;
      config.period = 2000;
      session = std::make_unique<ProfilingSession>(config);
    }
    CompiledQuery query = engine.Compile(PlanSql(db, sql), session.get(), "shell");
    Result result = engine.Execute(query);
    std::printf("%s", result.ToString(db.strings(), 25).c_str());
    std::printf("-- %.3f ms simulated (%llu instructions)\n",
                CyclesToMs(engine.last_cycles()),
                static_cast<unsigned long long>(engine.last_cpu_stats().instructions));
    if (session != nullptr) {
      session->Resolve(db.code_map());
      OperatorProfile profile = BuildOperatorProfile(*session, query);
      std::printf("\n%s", RenderAnnotatedPlan(profile, query).c_str());
      std::printf("%s", RenderAttributionStats(session->Stats()).c_str());
      if (options.listing) {
        for (const PipelineArtifact& artifact : query.pipelines) {
          std::printf("\n%s",
                      RenderAnnotatedListing(*session, query, artifact.pipeline.id).c_str());
        }
      }
    }
    std::printf("\n");
  } catch (const Error& error) {
    std::printf("error: %s\n\n", error.what());
  }
}

void RunSuite(Database& db, QueryEngine& engine, const ShellOptions& options) {
  for (const QuerySpec& spec : TpchQuerySuite()) {
    std::printf("=== %s: %s ===\n", spec.name.c_str(), spec.description.c_str());
    if (!spec.sql.empty()) {
      RunStatement(db, engine, options, spec.sql);
    } else {
      CompiledQuery query = engine.Compile(BuildQueryPlan(db, spec), nullptr, spec.name);
      Result result = engine.Execute(query);
      std::printf("%s-- %.3f ms simulated\n\n", result.ToString(db.strings(), 10).c_str(),
                  CyclesToMs(engine.last_cycles()));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  ShellOptions options;
  std::vector<std::string> statements;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      options.scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      options.profile = true;
    } else if (std::strcmp(argv[i], "--listing") == 0) {
      options.listing = true;
      options.profile = true;
    } else {
      statements.emplace_back(argv[i]);
    }
  }

  Database db;
  TpchOptions tpch;
  tpch.scale = options.scale;
  TpchRowCounts counts = GenerateTpch(db, tpch);
  QueryEngine engine(&db);
  std::printf("dfp sql shell — TPC-H-style data at scale %g (%llu lineitem rows)\n",
              options.scale, static_cast<unsigned long long>(counts.lineitem));

  if (!statements.empty()) {
    for (const std::string& sql : statements) {
      RunStatement(db, engine, options, sql);
    }
    return 0;
  }

  std::printf("Enter SQL (one statement per line), \\tables, \\suite, or \\q.\n");
  std::string line;
  while (std::printf("dfp> "), std::fflush(stdout), std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    if (line == "\\q") {
      break;
    }
    if (line == "\\tables") {
      for (const char* name :
           {"region", "nation", "supplier", "customer", "part", "partsupp", "orders",
            "lineitem"}) {
        const Table& table = db.table(name);
        std::printf("  %-10s %10llu rows, %zu columns\n", name,
                    static_cast<unsigned long long>(table.row_count()),
                    table.schema().columns.size());
      }
      continue;
    }
    if (line == "\\suite") {
      RunSuite(db, engine, options);
      continue;
    }
    RunStatement(db, engine, options, line);
  }
  return 0;
}
