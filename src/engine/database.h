// The Database: composition root owning memory, code map, runtime, string heap, and tables.
//
// Constructing a Database is "engine start-up": the shared runtime functions are built in VIR
// and compiled, and the kernel/system-library host segments are registered. Queries compiled
// against a Database add their own generated-code segments.
#ifndef DFP_SRC_ENGINE_DATABASE_H_
#define DFP_SRC_ENGINE_DATABASE_H_

#include <map>
#include <memory>
#include <string>

#include "src/pmu/pmu.h"
#include "src/runtime/runtime.h"
#include "src/storage/stringheap.h"
#include "src/storage/table.h"
#include "src/vcpu/code_map.h"
#include "src/vcpu/vmem.h"

namespace dfp {

struct DatabaseConfig {
  uint64_t columns_bytes = 192ull << 20;
  uint64_t strings_bytes = 24ull << 20;
  uint64_t hashtables_bytes = 160ull << 20;
  uint64_t state_bytes = 1ull << 20;
  uint64_t output_bytes = 128ull << 20;
  // Extra arena head room for regions created after start-up (the query service carves its
  // per-session scratch regions out of this; 0 means no service sessions can be hosted).
  uint64_t extra_bytes = 0;
};

class Database {
 public:
  explicit Database(DatabaseConfig config = DatabaseConfig());

  VMem& mem() { return mem_; }
  CodeMap& code_map() { return code_map_; }
  Runtime& runtime() { return *runtime_; }
  StringHeap& strings() { return *strings_; }

  uint32_t hashtables_region() const { return hashtables_region_; }
  uint32_t state_region() const { return state_region_; }
  uint32_t output_region() const { return output_region_; }

  // Creates a builder whose Finish() result should be registered with AddTable.
  TableBuilder CreateTableBuilder(TableSchema schema) {
    return TableBuilder(std::move(schema), &mem_, columns_region_, strings_.get());
  }

  void AddTable(Table table);
  const Table& table(const std::string& name) const;
  bool HasTable(const std::string& name) const { return tables_.count(name) != 0; }

  // Monotonic version of the catalog (tables + schemas). Bumped by AddTable; compiled-plan
  // caches mix it into plan fingerprints and drop entries when it moves.
  uint64_t catalog_version() const { return catalog_version_; }

  // Carves an additional region out of the arena's `extra_bytes` head room (per-session scratch
  // for the query service). Aborts when the arena is exhausted — size the DatabaseConfig for the
  // intended session count.
  uint32_t CreateScratchRegion(const std::string& name, uint64_t size) {
    return mem_.CreateRegion(name, size);
  }

  // Releases per-query scratch memory (hash tables, state, output buffers). Base table data and
  // strings are untouched.
  void ResetScratch();

 private:
  VMem mem_;
  CodeMap code_map_;
  uint32_t columns_region_;
  uint32_t hashtables_region_;
  uint32_t state_region_;
  uint32_t output_region_;
  std::unique_ptr<StringHeap> strings_;
  std::unique_ptr<Runtime> runtime_;
  std::map<std::string, Table> tables_;
  uint64_t catalog_version_ = 0;
};

}  // namespace dfp

#endif  // DFP_SRC_ENGINE_DATABASE_H_
