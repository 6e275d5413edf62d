// Interned string storage in VCPU memory.
//
// Strings are deduplicated at load time, so two equal strings always share one heap location and
// string equality in generated code is a single 64-bit compare of packed references. Ordering
// and pattern matching go through the (untagged) system-library runtime.
#ifndef DFP_SRC_STORAGE_STRINGHEAP_H_
#define DFP_SRC_STORAGE_STRINGHEAP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/vcpu/vmem.h"

namespace dfp {

// Packed reference: bits [63..24] = absolute VMem address, bits [23..0] = length.
inline constexpr uint64_t PackStringRef(VAddr addr, uint64_t length) {
  return (addr << 24) | (length & 0xFFFFFFull);
}
inline constexpr VAddr StringRefAddr(uint64_t packed) { return packed >> 24; }
inline constexpr uint64_t StringRefLen(uint64_t packed) { return packed & 0xFFFFFFull; }

class StringHeap {
 public:
  StringHeap(VMem* mem, uint32_t region) : mem_(mem), region_(region) {}

  // Returns the packed reference for `text`, storing it on first sight.
  uint64_t Intern(std::string_view text);

  // Reads the bytes a packed reference points at.
  std::string_view Get(uint64_t packed) const {
    return {reinterpret_cast<const char*>(mem_->Data(StringRefAddr(packed))),
            StringRefLen(packed)};
  }


  // Every interned string in heap-address (= first-intern) order. Replaying this sequence into
  // a fresh heap over an identically configured arena reproduces every packed reference bit for
  // bit — the property shard catalogs rely on to share plan templates and literal bindings with
  // the unsharded database (src/shard/partition.h).
  std::vector<std::string> InternOrder() const;

 private:
  VMem* mem_;
  uint32_t region_;
  std::unordered_map<std::string, uint64_t> interned_;
};

}  // namespace dfp

#endif  // DFP_SRC_STORAGE_STRINGHEAP_H_
