#include "src/service/service_profile.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <tuple>

#include "src/critpath/slack.h"
#include "src/profiling/reports.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

constexpr const char* kProfileHeader = "# dfp service profile v7";

}  // namespace

FleetPlanProfile& ServiceProfile::PlanFor(const PlanFingerprint& fingerprint,
                                          const std::string& name) {
  FleetPlanProfile& plan = plans_[fingerprint.structure];
  if (plan.executions == 0 && plan.compile_cycles == 0 && plan.name.empty()) {
    plan.fingerprint = fingerprint.structure;
    plan.name = name;
  }
  return plan;
}

void ServiceProfile::RecordCompile(const PlanFingerprint& fingerprint, const std::string& name,
                                   uint64_t compile_cycles, bool cache_hit) {
  FleetPlanProfile& plan = PlanFor(fingerprint, name);
  plan.compile_cycles += compile_cycles;
  total_compile_cycles_ += compile_cycles;
  if (cache_hit) {
    ++plan.cache_hits;
  } else {
    ++plan.cache_misses;
  }
}

void ServiceProfile::RecordExecution(const PlanFingerprint& fingerprint,
                                     const CompiledQuery& query, const OperatorProfile& profile,
                                     uint64_t execute_cycles) {
  FleetPlanProfile& plan = PlanFor(fingerprint, query.name);
  ++plan.executions;
  plan.execute_cycles += execute_cycles;
  total_execute_cycles_ += execute_cycles;
  for (const OperatorCost& cost : profile.operators) {
    FleetOperatorCost& fleet = plan.operators[cost.op];
    fleet.op = cost.op;
    if (fleet.label.empty()) {
      fleet.label = cost.label;
    }
    fleet.samples += cost.samples;
    plan.samples += cost.samples;
    total_operator_samples_ += cost.samples;
  }
}

void ServiceProfile::RecordCriticality(const PlanFingerprint& fingerprint,
                                       const std::string& name, uint64_t critical_work_cycles,
                                       uint64_t top_share_pct, const std::string& bottleneck) {
  FleetPlanProfile& plan = PlanFor(fingerprint, name);
  plan.critical_cycles += critical_work_cycles;
  plan.top_share_pct = top_share_pct;
  plan.bottleneck = bottleneck;
}

std::vector<FleetHotspot> ServiceProfile::TopOperators(size_t k) const {
  struct Row {
    uint64_t fingerprint;
    const FleetPlanProfile* plan;
    const FleetOperatorCost* op;
  };
  std::vector<Row> rows;
  for (const auto& [fingerprint, plan] : plans_) {
    for (const auto& [op, cost] : plan.operators) {
      (void)op;
      rows.push_back(Row{fingerprint, &plan, &cost});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.op->samples != b.op->samples) {
      return a.op->samples > b.op->samples;
    }
    if (a.fingerprint != b.fingerprint) {
      return a.fingerprint < b.fingerprint;
    }
    return a.op->op < b.op->op;
  });
  if (rows.size() > k) {
    rows.resize(k);
  }

  std::vector<FleetHotspot> hotspots;
  hotspots.reserve(rows.size());
  for (const Row& row : rows) {
    FleetHotspot hotspot;
    hotspot.plan_name = row.plan->name;
    hotspot.op_label = row.op->label;
    hotspot.samples = row.op->samples;
    hotspot.share = total_operator_samples_ == 0
                        ? 0
                        : static_cast<double>(row.op->samples) /
                              static_cast<double>(total_operator_samples_);
    hotspots.push_back(std::move(hotspot));
  }
  return hotspots;
}

std::string ServiceProfile::Render(size_t top_k) const {
  std::ostringstream out;
  out << "=== Fleet profile ===\n";
  uint64_t executions = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& [fingerprint, plan] : plans_) {
    (void)fingerprint;
    executions += plan.executions;
    hits += plan.cache_hits;
    misses += plan.cache_misses;
  }
  out << "plans " << plans_.size() << "  executions " << executions << "  cache " << hits
      << " hit / " << misses << " miss\n";
  const uint64_t total = total_compile_cycles_ + total_execute_cycles_;
  out << "cycles: compile " << total_compile_cycles_ << "  execute " << total_execute_cycles_;
  if (total != 0) {
    char share[32];
    std::snprintf(share, sizeof(share), "%.1f",
                  100.0 * static_cast<double>(total_compile_cycles_) /
                      static_cast<double>(total));
    out << "  (compile share " << share << "%)";
  }
  out << "\n\n";

  for (const auto& [fingerprint, plan] : plans_) {
    out << "plan " << Hex16(fingerprint) << "  " << plan.name << "\n";
    out << "  executions " << plan.executions << "  cache " << plan.cache_hits << " hit / "
        << plan.cache_misses << " miss  compile " << plan.compile_cycles << " cyc  execute "
        << plan.execute_cycles << " cyc  samples " << plan.samples << "\n";
    if (!plan.bottleneck.empty()) {
      out << "  critical path " << plan.critical_cycles << " cyc  top pipeline "
          << plan.top_share_pct << "%  " << plan.bottleneck << "\n";
    }
  }

  std::vector<FleetHotspot> hotspots = TopOperators(top_k);
  if (!hotspots.empty()) {
    out << "\n--- Hottest operators (top " << hotspots.size() << ") ---\n";
    for (const FleetHotspot& hotspot : hotspots) {
      char share[32];
      std::snprintf(share, sizeof(share), "%5.1f%%", 100.0 * hotspot.share);
      out << "  " << share << "  " << hotspot.op_label << "  [" << hotspot.plan_name << "]  "
          << hotspot.samples << " samples\n";
    }
  }
  return out.str();
}

namespace {

// Deterministic round-trippable double formatting (17 significant digits).
std::string DoubleKey(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void WriteServiceProfile(const ServiceProfile& profile, const WindowedProfile& windows,
                         std::ostream& out) {
  out << kProfileHeader << "\n";
  out << "windowcfg " << windows.config().width_cycles << "\n";
  for (const auto& [fingerprint, plan] : profile.plans()) {
    out << "plan " << Hex16(fingerprint) << " " << plan.executions << " " << plan.cache_hits
        << " " << plan.cache_misses << " " << plan.compile_cycles << " " << plan.execute_cycles
        << " " << plan.name << "\n";
    for (const auto& [op, cost] : plan.operators) {
      out << "op " << Hex16(fingerprint) << " " << op << " " << cost.samples << " " << cost.label
          << "\n";
    }
    if (!plan.bottleneck.empty()) {
      out << "crit " << Hex16(fingerprint) << " " << plan.critical_cycles << " "
          << plan.top_share_pct << " " << plan.bottleneck << "\n";
    }
  }
  for (const auto& [fingerprint, series] : windows.plans()) {
    for (const ProfileWindow& window : series.windows) {
      out << "window " << Hex16(fingerprint) << " " << window.index << " " << window.executions
          << " " << window.samples << " " << window.execute_cycles << " " << window.rows << " "
          << window.loads << " " << window.l1_misses << " " << window.l2_misses << " "
          << window.l3_misses << " " << window.remote_dram << " " << window.latency_p50 << " "
          << window.latency_p95 << " " << window.latency_max << " "
          << window.baseline_executions << " " << window.baseline_samples << "\n";
      for (const auto& [op, stats] : window.operators) {
        out << "wop " << Hex16(fingerprint) << " " << window.index << " " << op << " "
            << stats.samples << " " << stats.sample_cycles << " " << stats.label << "\n";
      }
    }
  }
}

void WriteServiceState(const ServiceProfile& profile, const WindowedProfile& windows,
                       const BaselineStore& baselines, uint64_t service_clock_cycles,
                       std::ostream& out, const SlackStore* slack, const CardStore* cards,
                       const GuardLog<ReoptPayload>* reopts) {
  WriteServiceProfile(profile, windows, out);
  out << "clock " << service_clock_cycles << "\n";
  for (const auto& [fingerprint, baseline] : baselines.baselines()) {
    out << "baseline " << Hex16(fingerprint) << " " << baseline.samples << " "
        << baseline.watermark << " " << DoubleKey(baseline.cycles_per_row) << " "
        << DoubleKey(baseline.remote_share) << " " << baseline.name << "\n";
    for (const auto& [op, stats] : baseline.operators) {
      out << "bop " << Hex16(fingerprint) << " " << op << " " << stats.samples << " "
          << stats.sample_cycles << " " << stats.label << "\n";
    }
  }
  if (slack != nullptr) {
    out << "slackgen " << slack->generation() << "\n";
    for (const auto& [fingerprint, plan] : slack->plans()) {
      out << "slack " << Hex16(fingerprint) << " " << plan.executions << " " << plan.generation
          << " " << plan.critical_path_cycles << " " << plan.name << "\n";
      for (const StepSlack& step : plan.steps) {
        out << "slackstep " << Hex16(fingerprint) << " " << step.step << " " << step.pipeline
            << " " << step.rows;
        for (uint64_t bucket : step.bucket_slack) {
          out << " " << bucket;
        }
        out << "\n";
      }
    }
  }
  if (cards != nullptr) {
    out << "cardgen " << cards->generation() << "\n";
    for (const auto& [fingerprint, plan] : cards->plans()) {
      out << "cardplan " << Hex16(fingerprint) << " " << plan.executions << " "
          << plan.generation << " " << plan.name << "\n";
      for (const auto& [op, entry] : plan.operators) {
        out << "card " << Hex16(fingerprint) << " " << op << " " << entry.observed_rows << " "
            << entry.estimated_rows << " " << entry.executions << " " << entry.generation
            << "\n";
      }
    }
  }
  if (reopts != nullptr) {
    for (const GuardedAction<ReoptPayload>& action : reopts->actions()) {
      const ReoptPayload& reopt = action.payload;
      out << "reopt " << Hex16(action.fingerprint) << " " << GuardStateName(action.state) << " "
          << action.decided_tsc << " " << action.applied_tsc << " " << action.resolved_tsc << " "
          << reopt.divergence_pct << " " << reopt.reordered << " " << reopt.semi_join << " "
          << action.plan_name << "\n";
    }
  }
}

ServiceProfile ReadServiceProfile(std::istream& in, WindowedProfile* windows,
                                  BaselineStore* baselines, uint64_t* service_clock_cycles,
                                  SlackStore* slack, CardStore* cards,
                                  GuardLog<ReoptPayload>* reopts) {
  LineReader reader(in, "service profile");
  reader.ExpectHeader(kProfileHeader);
  ServiceProfile profile;
  // Window names arrive on plan lines; remember them so the loaded series carry them too.
  std::map<uint64_t, std::string> plan_names;
  while (reader.NextRecord()) {
    const std::string_view kind = reader.Word();
    if (kind == "windowcfg") {
      WindowConfig config;
      reader.Fields(config.width_cycles);
      reader.End();
      if (config.width_cycles == 0) {
        reader.Reject();  // Windows are indexed by clock / width.
      }
      if (windows != nullptr) {
        windows->set_config(config);
      }
      continue;
    }
    if (kind == "clock" || kind == "slackgen" || kind == "cardgen") {
      const uint64_t value = reader.Read<uint64_t>();
      reader.End();
      if (kind == "clock" && service_clock_cycles != nullptr) {
        *service_clock_cycles = value;
      } else if (kind == "slackgen" && slack != nullptr) {
        slack->SetLoadedGeneration(value);
      } else if (kind == "cardgen" && cards != nullptr) {
        cards->SetLoadedGeneration(value);
      }
      continue;
    }
    // Every other line is keyed by its plan fingerprint. A key loads once: the writer never
    // repeats one, and a repeat would count its samples twice or drop what the first loaded.
    const uint64_t fingerprint = reader.Hex();
    auto once = [&](bool loaded) {
      if (!loaded) {
        throw Error("service profile has a second " + std::string(kind) + " line for plan " +
                    Hex16(fingerprint));
      }
    };
    if (kind == "plan") {
      FleetPlanProfile plan;
      reader.Fields(plan.executions, plan.cache_hits, plan.cache_misses, plan.compile_cycles,
                    plan.execute_cycles);
      plan.fingerprint = fingerprint;
      plan.name = reader.Rest();
      plan_names[fingerprint] = plan.name;
      // Rebuild the cross-plan totals as we load.
      once(profile.AddLoadedPlan(std::move(plan)));
    } else if (kind == "op") {
      FleetOperatorCost cost;
      reader.Fields(cost.op, cost.samples);
      cost.label = reader.Rest();
      once(profile.AddLoadedOperator(fingerprint, std::move(cost)));
    } else if (kind == "crit") {
      uint64_t critical_cycles = 0;
      uint64_t top_share = 0;
      reader.Fields(critical_cycles, top_share);
      const std::string bottleneck(reader.Word());
      reader.End();
      once(profile.AddLoadedCriticality(fingerprint, critical_cycles, top_share, bottleneck));
    } else if (kind == "window") {
      ProfileWindow window;
      reader.Fields(window.index, window.executions, window.samples, window.execute_cycles,
                    window.rows, window.loads, window.l1_misses, window.l2_misses,
                    window.l3_misses, window.remote_dram, window.latency_p50, window.latency_p95,
                    window.latency_max, window.baseline_executions, window.baseline_samples);
      reader.End();
      if (windows != nullptr) {
        // LoadWindowOperator folds op lines back in; start the counter from zero.
        window.samples = 0;
        windows->LoadWindow(fingerprint, plan_names[fingerprint], std::move(window));
      }
    } else if (kind == "wop") {
      const uint64_t window_index = reader.Read<uint64_t>();
      WindowOperatorStats stats;
      reader.Fields(stats.op, stats.samples, stats.sample_cycles);
      stats.label = reader.Rest();
      if (windows != nullptr) {
        once(windows->LoadWindowOperator(fingerprint, window_index, std::move(stats)));
      }
    } else if (kind == "baseline") {
      PlanBaseline baseline;
      reader.Fields(baseline.samples, baseline.watermark, baseline.cycles_per_row,
                    baseline.remote_share);
      baseline.fingerprint = fingerprint;
      baseline.name = reader.Rest();
      if (baselines != nullptr) {
        once(baselines->AddLoadedBaseline(std::move(baseline)));
      }
    } else if (kind == "bop") {
      WindowOperatorStats stats;
      reader.Fields(stats.op, stats.samples, stats.sample_cycles);
      stats.label = reader.Rest();
      if (baselines != nullptr) {
        once(baselines->AddLoadedBaselineOperator(fingerprint, std::move(stats)));
      }
    } else if (kind == "slack") {
      PlanSlack plan;
      plan.fingerprint = fingerprint;
      reader.Fields(plan.executions, plan.generation, plan.critical_path_cycles);
      plan.name = reader.Rest();
      if (slack != nullptr) {
        once(slack->Find(fingerprint) == nullptr);
        slack->LoadPlan(fingerprint) = std::move(plan);
      }
    } else if (kind == "slackstep") {
      StepSlack step;
      reader.Fields(step.step, step.pipeline, step.rows);
      for (uint64_t& bucket : step.bucket_slack) {
        bucket = reader.Read<uint64_t>();
      }
      reader.End();
      if (slack != nullptr) {
        // Steps arrive once each, in their stored (step, pipeline) order, so appending
        // rebuilds the sorted vector.
        std::vector<StepSlack>& steps = slack->LoadPlan(fingerprint).steps;
        once(steps.empty() || std::tie(steps.back().step, steps.back().pipeline) <
                                  std::tie(step.step, step.pipeline));
        steps.push_back(step);
      }
    } else if (kind == "cardplan") {
      PlanCards plan;
      reader.Fields(plan.executions, plan.generation);
      plan.name = reader.Rest();
      if (cards != nullptr) {
        once(cards->Find(fingerprint) == nullptr);
        cards->LoadPlan(fingerprint) = std::move(plan);
      }
    } else if (kind == "card") {
      const OperatorId op = reader.Read<OperatorId>();
      CardEntry entry;
      reader.Fields(entry.observed_rows, entry.estimated_rows, entry.executions,
                    entry.generation);
      reader.End();
      if (cards != nullptr) {
        once(cards->LoadPlan(fingerprint).operators.emplace(op, entry).second);
      }
    } else if (kind == "reopt") {
      GuardedAction<ReoptPayload> action;
      action.fingerprint = fingerprint;
      action.state = static_cast<GuardState>(reader.Name(kGuardStateNames));
      reader.Fields(action.decided_tsc, action.applied_tsc, action.resolved_tsc,
                    action.payload.divergence_pct);
      action.payload.reordered = reader.Flag();
      action.payload.semi_join = reader.Flag();
      action.plan_name = reader.Rest();
      if (reopts != nullptr) {
        once(reopts->Add(std::move(action)) != nullptr);
      }
    } else {
      reader.Reject();
    }
  }
  return profile;
}

bool ServiceProfile::AddLoadedPlan(FleetPlanProfile plan) {
  const uint64_t fingerprint = plan.fingerprint;
  const uint64_t compile_cycles = plan.compile_cycles;
  const uint64_t execute_cycles = plan.execute_cycles;
  if (!plans_.try_emplace(fingerprint, std::move(plan)).second) {
    return false;
  }
  total_compile_cycles_ += compile_cycles;
  total_execute_cycles_ += execute_cycles;
  return true;
}

bool ServiceProfile::AddLoadedCriticality(uint64_t fingerprint, uint64_t critical_cycles,
                                          uint64_t top_share_pct,
                                          const std::string& bottleneck) {
  auto it = plans_.find(fingerprint);
  if (it == plans_.end()) {
    throw Error("service profile crit line without a preceding plan line");
  }
  if (!it->second.bottleneck.empty()) {
    return false;
  }
  it->second.critical_cycles = critical_cycles;
  it->second.top_share_pct = top_share_pct;
  it->second.bottleneck = bottleneck;
  return true;
}

bool ServiceProfile::AddLoadedOperator(uint64_t fingerprint, FleetOperatorCost cost) {
  auto it = plans_.find(fingerprint);
  if (it == plans_.end()) {
    throw Error("service profile op line without a preceding plan line");
  }
  const uint64_t samples = cost.samples;
  const OperatorId op = cost.op;
  if (!it->second.operators.try_emplace(op, std::move(cost)).second) {
    return false;
  }
  it->second.samples += samples;
  total_operator_samples_ += samples;
  return true;
}

}  // namespace dfp
