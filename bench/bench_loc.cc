// Reproduces Table 3: implementation size per component. Counts this repository's non-blank
// source lines, split into the profiling additions vs. the host system, mirroring the paper's
// breakdown (their prototype: 56 lines in the code generator, ~1.7k of profiling/visualization,
// on top of ~22k lines of engine).
#include <dirent.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/util/table_printer.h"

namespace dfp {
namespace {

size_t CountLines(const std::string& path) {
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    bool blank = true;
    for (char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (!blank) {
      ++lines;
    }
  }
  return lines;
}

size_t CountDir(const std::string& dir) {
  size_t total = 0;
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) {
    return 0;
  }
  while (dirent* entry = readdir(handle)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") {
      continue;
    }
    std::string path = dir + "/" + name;
    if (entry->d_type == DT_DIR) {
      total += CountDir(path);
    } else if (name.size() > 3 &&
               (name.ends_with(".cc") || name.ends_with(".h") || name.ends_with(".cpp"))) {
      total += CountLines(path);
    }
  }
  closedir(handle);
  return total;
}

int Main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : DFP_SOURCE_ROOT;
  // Every count below is relative to the root, and a missing directory counts as 0 lines, so
  // a wrong root (say, a stray flag) would report an empty tree and pass.
  if (DIR* src = opendir((root + "/src").c_str())) {
    closedir(src);
  } else {
    std::fprintf(stderr, "bench_loc: no readable src/ under source root '%s'\n", root.c_str());
    return 1;
  }
  std::printf("==================================================================\n");
  std::printf("Experiment: implementation size per component\n");
  std::printf("Reproduces: Table 3\n");
  std::printf("==================================================================\n\n");

  struct Component {
    const char* label;
    const char* dir;
    bool profiling;  // Part of the Tailored Profiling additions.
  };
  const Component kComponents[] = {
      {"Profiling core (dictionary/session/reports)", "src/profiling", true},
      {"PMU (sampling unit)", "src/pmu", true},
      {"Engine code generation", "src/engine", false},
      {"Backend (passes/regalloc/emitter)", "src/backend", false},
      {"VIR", "src/ir", false},
      {"VCPU (memory/cache/execution)", "src/vcpu", false},
      {"Runtime (shared functions, kernel, syslib)", "src/runtime", false},
      {"Storage", "src/storage", false},
      {"Plans and expressions", "src/plan", false},
      {"SQL front end", "src/sql", false},
      {"Volcano oracle", "src/interp", false},
      {"TPC-H data and queries", "src/tpch", false},
      {"Utilities", "src/util", false},
      {"Query service (plan cache/sessions/fleet profile)", "src/service", false},
      {"Continuous profiling (windows/governor/regression)", "src/continuous", false},
      {"Tiered compilation", "src/tiering", false},
      {"Record/replay", "src/replay", false},
      {"Critical-path analysis", "src/critpath", false},
      {"Re-optimization", "src/reopt", false},
      {"Sharding", "src/shard", false},
      {"Tests", "tests", false},
      {"Experiments", "bench", false},
      {"Examples", "examples", false},
  };
  TablePrinter table({"Component", "Non-blank lines", "Category"});
  table.SetRightAlign(1, true);
  size_t profiling_total = 0;
  size_t system_total = 0;
  size_t src_rows = 0;
  for (const Component& component : kComponents) {
    size_t lines = CountDir(root + "/" + component.dir);
    (component.profiling ? profiling_total : system_total) += lines;
    if (std::strncmp(component.dir, "src/", 4) == 0) {
      src_rows += lines;
    }
    table.AddRow({component.label, std::to_string(lines),
                  component.profiling ? "Tailored Profiling" : "host system"});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("Tailored Profiling additions: %zu lines; host system + tests: %zu lines\n",
              profiling_total, system_total);
  // A src/ directory missing from the table would silently drop out of every total above, so
  // the run fails unless the rows cover all of src/.
  const size_t src_total = CountDir(root + "/src");
  std::printf("src/: %zu lines, %zu of them in the rows above\n", src_total, src_rows);
  std::printf(
      "(Paper, Table 3: 56 lines added to Umbra's code generator, 1686 lines of sample\n"
      " processing + visualization, on top of ~22k lines of engine. Our host system is built\n"
      " from scratch, so the \"engine\" share is the whole substrate.)\n");
  if (src_rows != src_total) {
    std::fprintf(stderr, "bench_loc: %zu src/ lines are in no row; add their directory\n",
                 src_total - src_rows);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dfp

int main(int argc, char** argv) { return dfp::Main(argc, argv); }
