// Columnar tables stored in VCPU memory.
#ifndef DFP_SRC_STORAGE_TABLE_H_
#define DFP_SRC_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/schema.h"
#include "src/storage/stringheap.h"
#include "src/vcpu/vmem.h"

namespace dfp {

// A fully loaded table: one contiguous column array per column, laid out in the columns region.
class Table {
 public:
  Table(TableSchema schema, uint64_t row_count, std::vector<VAddr> column_bases)
      : schema_(std::move(schema)), row_count_(row_count), column_bases_(std::move(column_bases)) {}

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }
  uint64_t row_count() const { return row_count_; }
  VAddr column_base(size_t column) const { return column_bases_[column]; }

  // Host-side read of one cell's register payload (sign-extending narrow columns).
  int64_t Get(const VMem& mem, size_t column, uint64_t row) const {
    const ColumnType type = schema_.columns[column].type;
    const VAddr addr = column_bases_[column] + row * ColumnWidth(type);
    switch (ColumnWidth(type)) {
      case 1:
        return mem.Read<uint8_t>(addr);
      case 4:
        return mem.Read<int32_t>(addr);
      default:
        return mem.Read<int64_t>(addr);
    }
  }

 private:
  TableSchema schema_;
  uint64_t row_count_;
  std::vector<VAddr> column_bases_;
};

// Accumulates rows host-side and writes the columnar representation on Finish().
class TableBuilder {
 public:
  TableBuilder(TableSchema schema, VMem* mem, uint32_t region, StringHeap* strings);

  // Starts a new row; every column must then be set exactly once (unset columns default to 0).
  void BeginRow();
  void SetI64(size_t column, int64_t value) { current_[column] = value; }
  void SetDecimal(size_t column, int64_t scaled) { current_[column] = scaled; }
  void SetDate(size_t column, int32_t days) { current_[column] = days; }
  void SetDouble(size_t column, double value);
  void SetString(size_t column, std::string_view text);

  uint64_t row_count() const { return rows_ - (in_row_ ? 1 : 0); }

  // Writes all columns into the region and returns the finished table.
  Table Finish();

 private:
  void FlushRow();

  TableSchema schema_;
  VMem* mem_;
  uint32_t region_;
  StringHeap* strings_;
  std::vector<std::vector<int64_t>> columns_;  // Host staging, per column.
  std::vector<int64_t> current_;
  uint64_t rows_ = 0;
  bool in_row_ = false;
};

}  // namespace dfp

#endif  // DFP_SRC_STORAGE_TABLE_H_
