// Flat virtual memory for the simulated CPU.
//
// All data the generated code touches (table columns, hash tables, query state, output buffers,
// the string heap) lives in one contiguous arena addressed by 64-bit offsets. Named regions carve
// up the arena so profiling reports can describe what an address belongs to, and per-region bump
// allocation mimics how an engine lays out its memory. Address 0 is reserved as the null pointer.
//
// Host memory: the arena is reserved whole but costs host memory only for the pages something
// touches. A dirty map, one byte per kDirtyPageBytes page, records which pages writes have
// touched since they last held only zeros, so a region reset zeroes just those pages and never
// commits a page that only a reservation covered (a hash table sized for its row bound, say).
#ifndef DFP_SRC_VCPU_VMEM_H_
#define DFP_SRC_VCPU_VMEM_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/check.h"

namespace dfp {

using VAddr = uint64_t;

// Largest arena a VMem accepts: the cache model's tags are only as wide as addresses below it
// need (src/vcpu/cache.h). The default DatabaseConfig reserves 505 MiB plus its head room.
inline constexpr uint64_t kMaxVMemBytes = 1ull << 35;

// Granularity of the dirty map: one map byte per page of this many arena bytes. A byte, not a
// bit, so two pages never share a memory location.
inline constexpr uint64_t kDirtyPageBytes = 4096;

// One named region of the arena (e.g. "columns", "hashtables", "state").
struct MemRegion {
  std::string name;
  VAddr base = 0;
  uint64_t size = 0;
  uint64_t used = 0;
};

// One NUMA-partitionable allocation (a table column array): a topology of N nodes divides it
// into N equal contiguous spans, modeling per-node first-touch placement of base data.
struct MemExtent {
  VAddr base = 0;
  uint64_t size = 0;
};

// Custom range partition of one extent, expressed in fixed-point fractions of its size so one
// map applies to every column of a table regardless of element width (offset/size tracks
// row/rows for any width). Slice i covers byte offsets [end_frac[i-1], end_frac[i]) * size /
// kPlacementDenom and lives on `node`; slices are ascending and the last end_frac is exactly
// kPlacementDenom. Placement-repair actions (src/service/placement_repair.h) install these to
// move column spans toward the NUMA nodes that actually consume them.
inline constexpr uint64_t kPlacementDenom = 1ull << 16;

struct PartitionSlice {
  uint64_t end_frac = 0;
  uint8_t node = 0;
};

using PartitionMap = std::vector<PartitionSlice>;

class VMem {
 public:
  // `capacity` is the total arena size in bytes, at least the 64 reserved null-page bytes. The
  // whole address range is reserved up front, so addresses are stable for the lifetime of the
  // VMem, but a page costs host memory only once something first touches it. Fresh bytes, and
  // the bytes of a reset region, read zero. Throws dfp::Error above kMaxVMemBytes and
  // std::bad_alloc when the range cannot be reserved.
  explicit VMem(uint64_t capacity);

  // Creates a named region of `size` bytes. Regions are carved out sequentially.
  // Returns the region id used with `Alloc`.
  uint32_t CreateRegion(const std::string& name, uint64_t size);

  // Bump-allocates `bytes` (aligned to `align`) from the region. Throws dfp::Error naming the
  // region, the request and the region's used and total bytes when the region is full: a query
  // can ask for more memory than its region holds. A bad region id or alignment is a caller bug
  // and aborts.
  VAddr Alloc(uint32_t region, uint64_t bytes, uint64_t align = 8);

  // Releases all allocations in the region and zeroes its used bytes, so that the next query's
  // allocations read zero. Only the dirty pages of the used range are zeroed; a page wholly
  // inside the range is then clean again, while a page shared with a neighbouring region keeps
  // its mark, since the neighbour's bytes on it may be nonzero. Clean pages are never touched.
  void ResetRegion(uint32_t region);

  // Read-only view of the bytes from `addr` on, bounds-checked via DFP_CHECK at `addr` only.
  // Writes go through Write or WriteBytes, which keep the dirty map.
  const uint8_t* Data(VAddr addr) const {
    DFP_CHECK(addr < capacity_);
    return bytes_.get() + addr;
  }

  // Typed accessors, bounds-checked via DFP_CHECK. `capacity_ - sizeof(T)` cannot wrap
  // (capacity_ >= 64), so an address near 2^64, such as a null base plus a negative
  // displacement, fails the check. Write marks the pages of its first and last byte dirty.
  template <typename T>
  T Read(VAddr addr) const {
    DFP_CHECK(addr <= capacity_ - sizeof(T));
    T value;
    std::memcpy(&value, bytes_.get() + addr, sizeof(T));
    return value;
  }

  template <typename T>
  void Write(VAddr addr, T value) {
    DFP_CHECK(addr <= capacity_ - sizeof(T));
    std::memcpy(bytes_.get() + addr, &value, sizeof(T));
    dirty_[addr / kDirtyPageBytes] = 1;
    dirty_[(addr + sizeof(T) - 1) / kDirtyPageBytes] = 1;
  }

  // Copies `len` bytes from `src` to [addr, addr + len), checking the whole range, and marks
  // every page it spans dirty.
  void WriteBytes(VAddr addr, const void* src, uint64_t len);

  uint64_t capacity() const { return capacity_; }
  // First address not yet carved into a region (where the next CreateRegion would start).
  uint64_t next_base() const { return next_base_; }
  const std::vector<MemRegion>& regions() const { return regions_; }
  const MemRegion& region(uint32_t id) const { return regions_[id]; }

  // Name of the region containing `addr`, or "unknown".
  const MemRegion* FindRegion(VAddr addr) const;

  // Marks [base, base+bytes) as a NUMA-partitionable extent (see MemExtent). Extents must be
  // registered in increasing address order and must not overlap — both hold naturally for bump
  // allocations. NumaMap consumes them via partitioned_extents().
  void MarkPartitioned(VAddr base, uint64_t bytes);
  const std::vector<MemExtent>& partitioned_extents() const { return partitioned_; }

  // Placement override for the extent starting at `base` (must be a registered extent). While
  // set, NumaMap::AddPartitionedExtents partitions that extent by the map instead of the
  // default equal-share split; clearing reverts to the default. Overrides model the guarded
  // re-partition action: data does not move in the flat arena, only the node ownership map
  // changes, exactly like a page-migration that leaves virtual addresses intact.
  void SetExtentPlacement(VAddr base, PartitionMap map);
  void ClearExtentPlacement(VAddr base);
  // The override for `base`, or nullptr when the extent uses the default split.
  const PartitionMap* ExtentPlacement(VAddr base) const;

 private:
  struct FreeDeleter {
    void operator()(uint8_t* bytes) const { std::free(bytes); }
  };

  // From calloc: the allocator serves arenas this large from fresh zero pages, so the host
  // commits a page only when it is first touched.
  std::unique_ptr<uint8_t[], FreeDeleter> bytes_;
  // One byte per kDirtyPageBytes page of bytes_, also from calloc. Invariant: a page whose byte
  // is clear holds only zeros.
  std::unique_ptr<uint8_t[], FreeDeleter> dirty_;
  uint64_t capacity_;
  std::vector<MemRegion> regions_;
  std::vector<MemExtent> partitioned_;
  std::map<VAddr, PartitionMap> placements_;
  uint64_t next_base_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_VMEM_H_
