// Abstraction Trackers (paper Section 4.2.4).
//
// During each lowering step, an Abstraction Tracker is a stack holding the higher-level
// component currently being lowered. The engine pushes/pops around produce/consume calls
// (operator tracker) and around task code generation (task tracker); whenever a lower-level
// component is created, the active tracker entry identifies its owner for the Tagging Dictionary.
#ifndef DFP_SRC_PROFILING_ABSTRACTION_TRACKER_H_
#define DFP_SRC_PROFILING_ABSTRACTION_TRACKER_H_

#include <vector>

#include "src/util/check.h"

namespace dfp {

template <typename Id>
class AbstractionTracker {
 public:
  void Push(Id id) { stack_.push_back(id); }
  void Pop() {
    DFP_CHECK(!stack_.empty());
    stack_.pop_back();
  }
  Id Active() const {
    DFP_CHECK(!stack_.empty());
    return stack_.back();
  }

 private:
  std::vector<Id> stack_;
};

// RAII scope for tracker push/pop.
template <typename Id>
class TrackerScope {
 public:
  TrackerScope(AbstractionTracker<Id>* tracker, Id id) : tracker_(tracker) {
    if (tracker_ != nullptr) {
      tracker_->Push(id);
    }
  }
  ~TrackerScope() {
    if (tracker_ != nullptr) {
      tracker_->Pop();
    }
  }
  TrackerScope(const TrackerScope&) = delete;
  TrackerScope& operator=(const TrackerScope&) = delete;

 private:
  AbstractionTracker<Id>* tracker_;
};

}  // namespace dfp

#endif  // DFP_SRC_PROFILING_ABSTRACTION_TRACKER_H_
