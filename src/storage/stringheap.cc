#include "src/storage/stringheap.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace dfp {

uint64_t StringHeap::Intern(std::string_view text) {
  auto it = interned_.find(std::string(text));
  if (it != interned_.end()) {
    return it->second;
  }
  VAddr addr = mem_->Alloc(region_, text.size() == 0 ? 1 : text.size(), 1);
  mem_->WriteBytes(addr, text.data(), text.size());
  uint64_t packed = PackStringRef(addr, text.size());
  interned_.emplace(std::string(text), packed);
  return packed;
}

std::vector<std::string> StringHeap::InternOrder() const {
  std::vector<std::pair<VAddr, const std::string*>> by_addr;
  by_addr.reserve(interned_.size());
  for (const auto& [text, packed] : interned_) {
    by_addr.emplace_back(StringRefAddr(packed), &text);
  }
  // Heap addresses are allocated by a bump pointer, so address order is intern order.
  std::sort(by_addr.begin(), by_addr.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> order;
  order.reserve(by_addr.size());
  for (const auto& [addr, text] : by_addr) {
    order.push_back(*text);
  }
  return order;
}

}  // namespace dfp
