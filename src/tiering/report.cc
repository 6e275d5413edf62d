#include "src/tiering/report.h"

#include <sstream>
#include <vector>

#include "src/util/text_format.h"

namespace dfp {
namespace {

const char* WindowTierLabel(const ProfileWindow& window) {
  if (window.baseline_executions == 0) {
    return "optimized";
  }
  if (window.baseline_executions == window.executions) {
    return "baseline";
  }
  return "mixed";
}

}  // namespace

TierTimelineTotals SummarizeTierTimeline(const WindowedProfile& windows,
                                         const TierController& controller) {
  TierTimelineTotals totals;
  for (const auto& [fingerprint, series] : windows.plans()) {
    (void)fingerprint;
    for (const ProfileWindow& window : series.windows) {
      totals.samples += window.samples;
      totals.baseline_samples += window.baseline_samples;
      totals.optimized_samples += window.samples - window.baseline_samples;
    }
  }
  for (const TierTransition& transition : controller.transitions()) {
    (void)transition;
    ++totals.transitions;
    if (transition.swapped_at_cycles != 0) {
      ++totals.swapped;
    }
  }
  return totals;
}

std::string RenderTierTimeline(const WindowedProfile& windows, const TierController& controller) {
  const uint64_t width = windows.config().width_cycles;
  std::ostringstream out;
  out << "=== Tier timeline (window width " << width << " cyc) ===\n";
  for (const auto& [fingerprint, series] : windows.plans()) {
    // Transitions of this fingerprint, in decision order.
    std::vector<const TierTransition*> transitions;
    for (const TierTransition& transition : controller.transitions()) {
      if (transition.fingerprint == fingerprint) {
        transitions.push_back(&transition);
      }
    }
    out << "plan " << Hex16(fingerprint) << "  " << series.name << "\n";
    for (const ProfileWindow& window : series.windows) {
      out << "  w" << window.index << "  [" << WindowTierLabel(window) << "]  exec "
          << (window.executions - window.baseline_executions) << " opt + "
          << window.baseline_executions << " base  samples "
          << (window.samples - window.baseline_samples) << " opt + " << window.baseline_samples
          << " base\n";
      for (const TierTransition* transition : transitions) {
        if (transition->decided_at_cycles / width == window.index) {
          out << "    -> promote " << TierName(transition->from) << " -> "
              << TierName(transition->to) << " @" << transition->decided_at_cycles
              << " (rollup " << transition->rollup_cycles << " cyc >= threshold "
              << transition->threshold_cycles << " cyc)\n";
        }
        if (transition->swapped_at_cycles != 0 &&
            transition->swapped_at_cycles / width == window.index) {
          out << "    -> swap live @" << transition->swapped_at_cycles << "\n";
        }
      }
    }
    // Markers outside every retained window (e.g. the ring evicted the decision's window, or
    // the swap landed after the last recorded execution) still need to show up.
    for (const TierTransition* transition : transitions) {
      const uint64_t decided_window = transition->decided_at_cycles / width;
      const uint64_t swapped_window = transition->swapped_at_cycles / width;
      bool decided_shown = false;
      bool swapped_shown = transition->swapped_at_cycles == 0;
      for (const ProfileWindow& window : series.windows) {
        decided_shown = decided_shown || window.index == decided_window;
        swapped_shown = swapped_shown || window.index == swapped_window;
      }
      if (!decided_shown) {
        out << "  (w" << decided_window << ")  -> promote " << TierName(transition->from)
            << " -> " << TierName(transition->to) << " @" << transition->decided_at_cycles
            << " (rollup " << transition->rollup_cycles << " cyc >= threshold "
            << transition->threshold_cycles << " cyc)\n";
      }
      if (!swapped_shown) {
        out << "  (w" << swapped_window << ")  -> swap live @" << transition->swapped_at_cycles
            << "\n";
      }
      if (transition->swapped_at_cycles == 0) {
        out << "    (recompile in flight)\n";
      }
    }
  }
  return out.str();
}

}  // namespace dfp
