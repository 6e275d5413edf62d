// The engine runtime: pre-compiled shared functions and host-modeled kernel/system-library work.
//
// Three kinds of callables, matching the three sample-attribution classes of the paper's Table 2:
//  - Shared runtime functions (hash-table insert/lookup) are written in VIR and compiled through
//    the same backend as query code. Samples inside them need Register Tagging or call-stack
//    walks to be attributed to an operator.
//  - Kernel functions (sort, hash-table growth, generic engine work) run host-side with modeled
//    costs; their samples attribute to named "kernel tasks".
//  - System-library functions (string compare, LIKE) also run host-side but are NOT covered by
//    tagging — their samples stay unattributed, the paper's missing 2%.
#ifndef DFP_SRC_RUNTIME_RUNTIME_H_
#define DFP_SRC_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/types.h"
#include "src/vcpu/code_map.h"
#include "src/vcpu/vmem.h"

namespace dfp {

struct SortKey {
  int64_t offset = 0;  // Byte offset within a materialized row.
  ColumnType type = ColumnType::kInt64;
  bool descending = false;
};

struct SortSpec {
  uint64_t row_size = 0;  // Bytes per materialized row.
  std::vector<SortKey> keys;
};

class Runtime {
 public:
  // Builds and compiles the shared VIR functions, and registers the host segments/functions.
  explicit Runtime(CodeMap* code_map);

  // rt_ht_insert(table, hash) -> new entry address. The paper's shared source location.
  uint32_t ht_insert_fn() const { return ht_insert_fn_; }
  // rt_ht_insert_locked(table, hash) -> new entry address, taking the table's stripe lock
  // (stripe = hash & 63) around the insert. Parallel pipelines call this variant so concurrent
  // workers never race on the bump allocator or a directory chain.
  uint32_t ht_insert_locked_fn() const { return ht_insert_locked_fn_; }
  // rt_ht_lookup(table, hash) -> first chain entry with that hash, or 0.
  uint32_t ht_lookup_fn() const { return ht_lookup_fn_; }

  // kernel_sort(buffer, row_count, spec_id): stable sort of materialized rows.
  uint32_t sort_fn() const { return sort_fn_; }
  // Generic kernel work segment for engine bookkeeping (query state setup, buffer management).
  uint32_t kernel_exec_segment() const { return kernel_exec_segment_; }

  // sys_str_cmp(a, b) -> -1/0/1 and sys_str_like(s, pattern_id) -> 0/1.
  uint32_t str_cmp_fn() const { return str_cmp_fn_; }
  uint32_t str_like_fn() const { return str_like_fn_; }

  // Registers a sort specification / LIKE pattern; returns the id passed to the host function.
  uint32_t RegisterSortSpec(SortSpec spec);
  uint32_t RegisterPattern(std::string pattern);

 private:
  void BuildHtInsert();
  void BuildHtInsertLocked();
  void BuildHtLookup();
  void RegisterKernelFunctions();
  void RegisterSyslibFunctions();

  CodeMap* code_map_;

  uint32_t ht_insert_fn_ = 0;
  uint32_t ht_insert_locked_fn_ = 0;
  uint32_t ht_lookup_fn_ = 0;
  uint32_t sort_fn_ = 0;
  uint32_t ht_grow_fn_ = 0;
  uint32_t kernel_exec_segment_ = 0;
  uint32_t str_cmp_fn_ = 0;
  uint32_t str_like_fn_ = 0;
  uint32_t sort_segment_ = 0;
  uint32_t syslib_segment_ = 0;

  std::vector<SortSpec> sort_specs_;
  std::vector<std::string> patterns_;
};

}  // namespace dfp

#endif  // DFP_SRC_RUNTIME_RUNTIME_H_
