// Guarded actions: the decided -> applied -> kept/reverted lifecycle of a closed-loop change the
// service makes on the strength of its own profiles.
//
// A controller reads a verdict off the profiles and decides to act (kDecided), installs the
// change and snapshots the fingerprint's window rollup as the guard's yardstick (kApplied),
// then judges the windows that arrive afterwards against that snapshot (JudgeRegression) and
// keeps the change or reverts it (kKept / kReverted). Placement repair
// (src/service/placement_repair.h) and re-optimization (src/reopt/controller.h) both run this
// lifecycle; each contributes only a payload — what it changed and how to describe it. A
// payload type P provides:
//
//   static constexpr const char* kName;  // Sideband line kind and timeline title ("reopt").
//   static constexpr const char* kNone;  // What an empty timeline lists none of.
//   std::string Subject() const;         // Sideband tokens between fingerprint and state.
//   std::string Detail() const;          // Timeline text between state and timestamps.
#ifndef DFP_SRC_CONTINUOUS_GUARD_H_
#define DFP_SRC_CONTINUOUS_GUARD_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/continuous/regression.h"
#include "src/util/text_format.h"

namespace dfp {

enum class GuardState : uint8_t {
  kDecided,   // Verdict accepted, change chosen (it may still be compiling).
  kApplied,   // Change installed; re-measuring against the pre-apply baseline.
  kKept,      // Guard verdict clean: the change stays.
  kReverted,  // Guard verdict regressed, or the change never took effect: undone.
};

inline constexpr const char* kGuardStateNames[] = {"decided", "applied", "kept", "reverted"};

inline const char* GuardStateName(GuardState state) {
  return kGuardStateNames[static_cast<size_t>(state)];
}

// Inverse, for profile loading. Returns false on an unknown name.
inline bool GuardStateFromName(const std::string& name, GuardState* out) {
  for (size_t i = 0; i < std::size(kGuardStateNames); ++i) {
    if (name == kGuardStateNames[i]) {
      *out = static_cast<GuardState>(i);
      return true;
    }
  }
  return false;
}

template <typename Payload>
struct GuardedAction {
  uint64_t fingerprint = 0;
  std::string plan_name{};
  GuardState state = GuardState::kDecided;
  uint64_t decided_tsc = 0;
  uint64_t applied_tsc = 0;
  uint64_t resolved_tsc = 0;  // Kept/reverted timestamp; 0 until resolved.
  // This fingerprint's rollup at apply time, the yardstick the guard judges by. Unset before
  // the apply, when the fingerprint had fewer than the guard's min_samples then, and for
  // actions loaded from a state file.
  std::optional<PlanBaseline> baseline{};
  Payload payload{};
};

// Append-only audit log, in decision order.
template <typename Payload>
class GuardLog {
 public:
  using Action = GuardedAction<Payload>;

  // Appends `action` and returns it, or returns nullptr (leaving the log unchanged) when its
  // fingerprint already has an action. One action per fingerprint, whatever its state: a kept
  // change needs no second try and a reverted one proved the idea wrong — either way the loop
  // must not oscillate.
  Action* Add(Action action) {
    if (Find(action.fingerprint) != nullptr) {
      return nullptr;
    }
    actions_.push_back(std::move(action));
    return &actions_.back();
  }

  // The action for `fingerprint`, or nullptr when none was ever decided.
  Action* Find(uint64_t fingerprint) {
    auto it = std::find_if(actions_.begin(), actions_.end(),
                           [fingerprint](const Action& a) { return a.fingerprint == fingerprint; });
    return it == actions_.end() ? nullptr : &*it;
  }
  const Action* Find(uint64_t fingerprint) const {
    return const_cast<GuardLog*>(this)->Find(fingerprint);
  }

  const std::vector<Action>& actions() const { return actions_; }
  uint64_t applied() const { return Count(GuardState::kApplied) + kept(); }  // In effect.
  uint64_t kept() const { return Count(GuardState::kKept); }
  uint64_t reverted() const { return Count(GuardState::kReverted); }

 private:
  uint64_t Count(GuardState state) const {
    return std::count_if(actions_.begin(), actions_.end(),
                         [state](const Action& a) { return a.state == state; });
  }

  std::vector<Action> actions_;
};

// One line per action, in decision order:
//   plan <fingerprint> <name> [<state>] <detail> decided@<tsc>[ applied@<tsc>][ resolved@<tsc>]
template <typename Payload>
std::string RenderGuardTimeline(const GuardLog<Payload>& log) {
  std::string out = std::string("=== ") + Payload::kName + " timeline ===\n";
  if (log.actions().empty()) {
    return out + "(no " + Payload::kNone + ")\n";
  }
  for (const GuardedAction<Payload>& action : log.actions()) {
    out += "plan " + Hex16(action.fingerprint) + " " + action.plan_name + " [" +
           GuardStateName(action.state) + "] " + action.payload.Detail() + " decided@" +
           std::to_string(action.decided_tsc);
    if (action.applied_tsc != 0) {
      out += " applied@" + std::to_string(action.applied_tsc);
    }
    if (action.resolved_tsc != 0) {
      out += " resolved@" + std::to_string(action.resolved_tsc);
    }
    out += "\n";
  }
  return out;
}

}  // namespace dfp

#endif  // DFP_SRC_CONTINUOUS_GUARD_H_
