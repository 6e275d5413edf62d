#include "src/engine/database.h"

#include "src/util/check.h"

namespace dfp {
namespace {

uint64_t TotalBytes(const DatabaseConfig& config) {
  return config.columns_bytes + config.strings_bytes + config.hashtables_bytes +
         config.state_bytes + config.output_bytes + config.extra_bytes +
         (1 << 16) /* reserved head room */;
}

}  // namespace

Database::Database(DatabaseConfig config) : mem_(TotalBytes(config)) {
  columns_region_ = mem_.CreateRegion("columns", config.columns_bytes);
  const uint32_t strings_region = mem_.CreateRegion("strings", config.strings_bytes);
  hashtables_region_ = mem_.CreateRegion("hashtables", config.hashtables_bytes);
  state_region_ = mem_.CreateRegion("state", config.state_bytes);
  output_region_ = mem_.CreateRegion("output", config.output_bytes);
  strings_ = std::make_unique<StringHeap>(&mem_, strings_region);
  runtime_ = std::make_unique<Runtime>(&code_map_);
}

void Database::AddTable(Table table) {
  std::string name = table.name();
  DFP_CHECK(tables_.emplace(std::move(name), std::move(table)).second);
  ++catalog_version_;
}

const Table& Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw Error("unknown table: '" + name + "'");
  }
  return it->second;
}

void Database::ResetScratch() {
  mem_.ResetRegion(hashtables_region_);
  mem_.ResetRegion(state_region_);
  mem_.ResetRegion(output_region_);
}

}  // namespace dfp
