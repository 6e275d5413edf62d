#include "src/service/service_profile.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/critpath/slack.h"
#include "src/profiling/reports.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

constexpr const char* kProfileHeader = "# dfp service profile v7";

[[noreturn]] void Malformed(const std::string& line) {
  throw Error("malformed service profile line: '" + line + "'");
}

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
  ExpectHeader(in, kProfileHeader);
  ServiceProfile profile;
  // Window names arrive on plan lines; remember them so the loaded series carry them too.
  std::map<uint64_t, std::string> plan_names;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream stream(line);
    std::string kind;
    stream >> kind;
    if (kind == "windowcfg") {
      WindowConfig config;
      if (!(stream >> config.width_cycles)) {
        Malformed(line);
      }
      if (windows != nullptr) {
        windows->set_config(config);
      }
      continue;
    }
    if (kind == "clock" || kind == "slackgen" || kind == "cardgen") {
      uint64_t value = 0;
      if (!(stream >> value)) {
        Malformed(line);
      }
      if (kind == "clock" && service_clock_cycles != nullptr) {
        *service_clock_cycles = value;
      } else if (kind == "slackgen" && slack != nullptr) {
        slack->SetLoadedGeneration(value);
      } else if (kind == "cardgen" && cards != nullptr) {
        cards->SetLoadedGeneration(value);
      }
      continue;
    }
    // Every other line is keyed by its plan fingerprint.
    std::string key;
    if (!(stream >> key)) {
      Malformed(line);
    }
    const uint64_t fingerprint = ParseHex16(key);
    if (kind == "plan") {
      FleetPlanProfile plan;
      if (!(stream >> plan.executions >> plan.cache_hits >> plan.cache_misses >>
            plan.compile_cycles >> plan.execute_cycles)) {
        Malformed(line);
      }
      plan.fingerprint = fingerprint;
      plan.name = RestOfLine(stream);
      plan_names[fingerprint] = plan.name;
      // Rebuild the cross-plan totals as we load.
      profile.AddLoadedPlan(std::move(plan));
    } else if (kind == "op") {
      FleetOperatorCost cost;
      uint64_t op = 0;
      if (!(stream >> op >> cost.samples)) {
        Malformed(line);
      }
      cost.op = static_cast<OperatorId>(op);
      cost.label = RestOfLine(stream);
      profile.AddLoadedOperator(fingerprint, std::move(cost));
    } else if (kind == "crit") {
      uint64_t critical_cycles = 0;
      uint64_t top_share = 0;
      std::string bottleneck;
      if (!(stream >> critical_cycles >> top_share >> bottleneck)) {
        Malformed(line);
      }
      profile.AddLoadedCriticality(fingerprint, critical_cycles, top_share, bottleneck);
    } else if (kind == "window") {
      ProfileWindow window;
      if (!(stream >> window.index >> window.executions >> window.samples >>
            window.execute_cycles >> window.rows >> window.loads >> window.l1_misses >>
            window.l2_misses >> window.l3_misses >> window.remote_dram >> window.latency_p50 >>
            window.latency_p95 >> window.latency_max >> window.baseline_executions >>
            window.baseline_samples)) {
        Malformed(line);
      }
      if (windows != nullptr) {
        // LoadWindowOperator folds op lines back in; start the counter from zero.
        window.samples = 0;
        windows->LoadWindow(fingerprint, plan_names[fingerprint], std::move(window));
      }
    } else if (kind == "wop") {
      uint64_t window_index = 0;
      uint64_t op = 0;
      WindowOperatorStats stats;
      if (!(stream >> window_index >> op >> stats.samples >> stats.sample_cycles)) {
        Malformed(line);
      }
      stats.op = static_cast<OperatorId>(op);
      stats.label = RestOfLine(stream);
      if (windows != nullptr) {
        windows->LoadWindowOperator(fingerprint, window_index, std::move(stats));
      }
    } else if (kind == "baseline") {
      PlanBaseline baseline;
      if (!(stream >> baseline.samples >> baseline.watermark >> baseline.cycles_per_row >>
            baseline.remote_share)) {
        Malformed(line);
      }
      baseline.fingerprint = fingerprint;
      baseline.name = RestOfLine(stream);
      if (baselines != nullptr) {
        baselines->AddLoadedBaseline(std::move(baseline));
      }
    } else if (kind == "bop") {
      uint64_t op = 0;
      WindowOperatorStats stats;
      if (!(stream >> op >> stats.samples >> stats.sample_cycles)) {
        Malformed(line);
      }
      stats.op = static_cast<OperatorId>(op);
      stats.label = RestOfLine(stream);
      if (baselines != nullptr) {
        baselines->AddLoadedBaselineOperator(fingerprint, std::move(stats));
      }
    } else if (kind == "slack") {
      uint64_t executions = 0;
      uint64_t generation = 0;
      uint64_t critical = 0;
      if (!(stream >> executions >> generation >> critical)) {
        Malformed(line);
      }
      if (slack != nullptr) {
        PlanSlack& plan = slack->LoadPlan(fingerprint);
        plan.name = RestOfLine(stream);
        plan.executions = executions;
        plan.generation = generation;
        plan.critical_path_cycles = critical;
      }
    } else if (kind == "slackstep") {
      StepSlack step;
      if (!(stream >> step.step >> step.pipeline >> step.rows)) {
        Malformed(line);
      }
      for (uint64_t& bucket : step.bucket_slack) {
        if (!(stream >> bucket)) {
          Malformed(line);
        }
      }
      if (slack != nullptr) {
        // The writer emits steps in their stored (step, pipeline) order, so appending
        // reconstructs the same sorted vector.
        slack->LoadPlan(fingerprint).steps.push_back(step);
      }
    } else if (kind == "cardplan") {
      uint64_t executions = 0;
      uint64_t generation = 0;
      if (!(stream >> executions >> generation)) {
        Malformed(line);
      }
      if (cards != nullptr) {
        PlanCards& plan = cards->LoadPlan(fingerprint);
        plan.name = RestOfLine(stream);
        plan.executions = executions;
        plan.generation = generation;
      }
    } else if (kind == "card") {
      uint64_t op = 0;
      CardEntry entry;
      if (!(stream >> op >> entry.observed_rows >> entry.estimated_rows >> entry.executions >>
            entry.generation)) {
        Malformed(line);
      }
      if (cards != nullptr) {
        cards->LoadPlan(fingerprint).operators[static_cast<OperatorId>(op)] = entry;
      }
    } else if (kind == "reopt") {
      std::string state;
      GuardedAction<ReoptPayload> action;
      uint64_t reordered = 0;
      uint64_t semi_join = 0;
      if (!(stream >> state >> action.decided_tsc >> action.applied_tsc >>
            action.resolved_tsc >> action.payload.divergence_pct >> reordered >> semi_join) ||
          !GuardStateFromName(state, &action.state)) {
        Malformed(line);
      }
      action.fingerprint = fingerprint;
      action.payload.reordered = reordered != 0;
      action.payload.semi_join = semi_join != 0;
      action.plan_name = RestOfLine(stream);
      if (reopts != nullptr && reopts->Add(std::move(action)) == nullptr) {
        throw Error("service profile has a second reopt line for plan " + key);
      }
    } else {
      Malformed(line);
    }
  }
  return profile;
}

void ServiceProfile::AddLoadedPlan(FleetPlanProfile plan) {
  total_compile_cycles_ += plan.compile_cycles;
  total_execute_cycles_ += plan.execute_cycles;
  plans_[plan.fingerprint] = std::move(plan);
}

void ServiceProfile::AddLoadedCriticality(uint64_t fingerprint, uint64_t critical_cycles,
                                          uint64_t top_share_pct,
                                          const std::string& bottleneck) {
  auto it = plans_.find(fingerprint);
  if (it == plans_.end()) {
    throw Error("service profile crit line without a preceding plan line");
  }
  it->second.critical_cycles = critical_cycles;
  it->second.top_share_pct = top_share_pct;
  it->second.bottleneck = bottleneck;
}

void ServiceProfile::AddLoadedOperator(uint64_t fingerprint, FleetOperatorCost cost) {
  auto it = plans_.find(fingerprint);
  if (it == plans_.end()) {
    throw Error("service profile op line without a preceding plan line");
  }
  it->second.samples += cost.samples;
  total_operator_samples_ += cost.samples;
  it->second.operators[cost.op] = std::move(cost);
}

}  // namespace dfp
