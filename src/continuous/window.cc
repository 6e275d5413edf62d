#include "src/continuous/window.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

// Nearest-rank quantile of an ascending-sorted vector.
uint64_t Quantile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()) + 0.5);
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

double WindowRollup::CyclesPerRow() const {
  return static_cast<double>(execute_cycles) / static_cast<double>(std::max<uint64_t>(1, rows));
}

double WindowRollup::RemoteDramShare() const {
  return loads == 0 ? 0 : static_cast<double>(remote_dram) / static_cast<double>(loads);
}

double OperatorShare(const std::map<OperatorId, WindowOperatorStats>& operators, uint64_t samples,
                     OperatorId op) {
  auto it = operators.find(op);
  if (samples == 0 || it == operators.end()) {
    return 0;
  }
  return static_cast<double>(it->second.samples) / static_cast<double>(samples);
}

WindowedProfile::WindowedProfile(WindowConfig config) : config_(config) {
  DFP_CHECK(config_.width_cycles > 0);
}

ProfileWindow& WindowedProfile::WindowFor(PlanWindowSeries& series, uint64_t index) {
  // The service clock is monotone, so a new index only ever extends the ring at the back.
  if (series.windows.empty() || series.windows.back().index < index) {
    ProfileWindow window;
    window.index = index;
    series.windows.push_back(std::move(window));
    while (series.windows.size() > kRingWindows) {
      series.windows.pop_front();
    }
  }
  DFP_CHECK(series.windows.back().index == index);
  return series.windows.back();
}

void WindowedProfile::Record(uint64_t fingerprint, const std::string& name, uint64_t now_cycles,
                             const OperatorProfile& profile, const PmuCounters& counters,
                             uint64_t execute_cycles, uint64_t result_rows,
                             uint64_t sampling_period, PlanTier tier) {
  PlanWindowSeries& series = plans_[fingerprint];
  if (series.name.empty()) {
    series.fingerprint = fingerprint;
    series.name = name;
  }
  ProfileWindow& window = WindowFor(series, now_cycles / config_.width_cycles);
  ++window.executions;
  if (tier == PlanTier::kBaseline) {
    ++window.baseline_executions;
  }
  window.execute_cycles += execute_cycles;
  window.rows += result_rows;
  window.loads += counters[PmuEvent::kLoads];
  window.l1_misses += counters[PmuEvent::kL1Miss];
  window.l2_misses += counters[PmuEvent::kL2Miss];
  window.l3_misses += counters[PmuEvent::kL3Miss];
  window.remote_dram += counters[PmuEvent::kRemoteDram];

  for (const OperatorCost& cost : profile.operators) {
    WindowOperatorStats& stats = window.operators[cost.op];
    stats.op = cost.op;
    if (stats.label.empty()) {
      stats.label = cost.label;
    }
    stats.samples += cost.samples;
    stats.sample_cycles += cost.samples * sampling_period;
    window.samples += cost.samples;
    if (tier == PlanTier::kBaseline) {
      window.baseline_samples += cost.samples;
    }
  }

  // Insert the latency in sorted position and refresh the stored quantiles.
  auto pos = std::upper_bound(window.latencies.begin(), window.latencies.end(), execute_cycles);
  window.latencies.insert(pos, execute_cycles);
  window.latency_p50 = Quantile(window.latencies, 0.50);
  window.latency_p95 = Quantile(window.latencies, 0.95);
  window.latency_max = window.latencies.back();
}

WindowRollup WindowedProfile::RollUp(uint64_t fingerprint) const {
  return RollUpSince(fingerprint, 0);
}

WindowRollup WindowedProfile::RollUpSince(uint64_t fingerprint, uint64_t min_index) const {
  WindowRollup rollup;
  rollup.fingerprint = fingerprint;
  auto it = plans_.find(fingerprint);
  if (it == plans_.end()) {
    return rollup;
  }
  const PlanWindowSeries& series = it->second;
  rollup.name = series.name;
  // Execution-weighted median of window medians: deterministic and computable from loaded
  // profiles (raw latencies are not serialized).
  std::vector<std::pair<uint64_t, uint64_t>> medians;  // (p50, executions)
  for (const ProfileWindow& window : series.windows) {
    if (window.index < min_index) {
      continue;
    }
    ++rollup.window_count;
    rollup.executions += window.executions;
    rollup.samples += window.samples;
    rollup.baseline_executions += window.baseline_executions;
    rollup.baseline_samples += window.baseline_samples;
    rollup.execute_cycles += window.execute_cycles;
    rollup.rows += window.rows;
    rollup.loads += window.loads;
    rollup.l1_misses += window.l1_misses;
    rollup.l2_misses += window.l2_misses;
    rollup.l3_misses += window.l3_misses;
    rollup.remote_dram += window.remote_dram;
    rollup.latency_p95 = std::max(rollup.latency_p95, window.latency_p95);
    rollup.latency_max = std::max(rollup.latency_max, window.latency_max);
    medians.push_back({window.latency_p50, window.executions});
    for (const auto& [op, stats] : window.operators) {
      WindowOperatorStats& total = rollup.operators[op];
      total.op = op;
      if (total.label.empty()) {
        total.label = stats.label;
      }
      total.samples += stats.samples;
      total.sample_cycles += stats.sample_cycles;
    }
  }
  std::sort(medians.begin(), medians.end());
  uint64_t half = rollup.executions / 2;
  uint64_t seen = 0;
  for (const auto& [p50, executions] : medians) {
    seen += executions;
    if (seen > half) {
      rollup.latency_p50 = p50;
      break;
    }
  }
  return rollup;
}

std::vector<WindowRollup> WindowedProfile::RollUpAll() const {
  std::vector<WindowRollup> rollups;
  rollups.reserve(plans_.size());
  for (const auto& [fingerprint, series] : plans_) {
    (void)series;
    rollups.push_back(RollUp(fingerprint));
  }
  return rollups;
}

const ProfileWindow* WindowedProfile::LatestWindow(uint64_t fingerprint) const {
  auto it = plans_.find(fingerprint);
  if (it == plans_.end() || it->second.windows.empty()) {
    return nullptr;
  }
  return &it->second.windows.back();
}

std::string WindowedProfile::Render() const {
  std::ostringstream out;
  out << "=== Windowed fleet profile (width " << config_.width_cycles << " cyc, ring "
      << kRingWindows << ") ===\n";
  for (const auto& [fingerprint, series] : plans_) {
    out << "plan " << Hex16(fingerprint) << "  " << series.name << "\n";
    for (const ProfileWindow& window : series.windows) {
      out << "  w" << window.index << "  exec " << window.executions << "  samples "
          << window.samples << "  lat p50/p95/max " << window.latency_p50 << "/"
          << window.latency_p95 << "/" << window.latency_max << "  l3miss " << window.l3_misses
          << "  remote " << window.remote_dram;
      if (window.baseline_executions > 0) {
        out << "  baseline " << window.baseline_executions << "/" << window.executions
            << " exec " << window.baseline_samples << " samples";
      }
      out << "\n";
      // Operators, hottest first (ties by operator id for a stable report).
      std::vector<const WindowOperatorStats*> ops;
      for (const auto& [op, stats] : window.operators) {
        (void)op;
        ops.push_back(&stats);
      }
      std::sort(ops.begin(), ops.end(), [](const WindowOperatorStats* a,
                                           const WindowOperatorStats* b) {
        return a->samples != b->samples ? a->samples > b->samples : a->op < b->op;
      });
      for (const WindowOperatorStats* stats : ops) {
        char share[32];
        std::snprintf(share, sizeof(share), "%5.1f%%",
                      window.samples == 0 ? 0.0
                                          : 100.0 * static_cast<double>(stats->samples) /
                                                static_cast<double>(window.samples));
        out << "    " << share << "  " << stats->label << "  " << stats->samples << " samples\n";
      }
    }
  }
  return out.str();
}

void WindowedProfile::WriteJson(std::ostream& out) const {
  out << "{\"width_cycles\":" << config_.width_cycles
      << ",\"ring_windows\":" << kRingWindows << ",\"plans\":[";
  bool first_plan = true;
  for (const auto& [fingerprint, series] : plans_) {
    if (!first_plan) {
      out << ",";
    }
    first_plan = false;
    out << "{\"fingerprint\":\"" << Hex16(fingerprint) << "\",\"name\":\"" << series.name
        << "\",\"windows\":[";
    bool first_window = true;
    for (const ProfileWindow& window : series.windows) {
      if (!first_window) {
        out << ",";
      }
      first_window = false;
      out << "{\"index\":" << window.index << ",\"executions\":" << window.executions
          << ",\"samples\":" << window.samples
          << ",\"baseline_executions\":" << window.baseline_executions
          << ",\"baseline_samples\":" << window.baseline_samples
          << ",\"execute_cycles\":" << window.execute_cycles
          << ",\"rows\":" << window.rows << ",\"loads\":" << window.loads
          << ",\"l1_misses\":" << window.l1_misses << ",\"l2_misses\":" << window.l2_misses
          << ",\"l3_misses\":" << window.l3_misses << ",\"remote_dram\":" << window.remote_dram
          << ",\"latency_p50\":" << window.latency_p50
          << ",\"latency_p95\":" << window.latency_p95
          << ",\"latency_max\":" << window.latency_max << ",\"operators\":[";
      bool first_op = true;
      for (const auto& [op, stats] : window.operators) {
        if (!first_op) {
          out << ",";
        }
        first_op = false;
        out << "{\"op\":" << op << ",\"label\":\"" << stats.label
            << "\",\"samples\":" << stats.samples << ",\"sample_cycles\":" << stats.sample_cycles
            << "}";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "]}\n";
}

void WindowedProfile::LoadWindow(uint64_t fingerprint, const std::string& name,
                                 ProfileWindow window) {
  PlanWindowSeries& series = plans_[fingerprint];
  if (series.name.empty()) {
    series.fingerprint = fingerprint;
    series.name = name;
  }
  if (!series.windows.empty() && series.windows.back().index >= window.index) {
    throw Error("service profile window lines out of order");
  }
  series.windows.push_back(std::move(window));
  while (series.windows.size() > kRingWindows) {
    series.windows.pop_front();
  }
}

bool WindowedProfile::LoadWindowOperator(uint64_t fingerprint, uint64_t window_index,
                                         WindowOperatorStats stats) {
  auto it = plans_.find(fingerprint);
  if (it == plans_.end() || it->second.windows.empty() ||
      it->second.windows.back().index != window_index) {
    throw Error("service profile wop line without its window line");
  }
  ProfileWindow& window = it->second.windows.back();
  const uint64_t samples = stats.samples;
  const OperatorId op = stats.op;
  if (!window.operators.try_emplace(op, std::move(stats)).second) {
    return false;
  }
  window.samples += samples;
  return true;
}

}  // namespace dfp
