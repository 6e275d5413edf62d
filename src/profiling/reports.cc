#include "src/profiling/reports.h"

#include <algorithm>
#include <unordered_map>

#include "src/util/chart.h"
#include "src/util/check.h"
#include "src/util/str.h"
#include "src/util/table_printer.h"
#include "src/vcpu/disasm.h"
#include "src/vcpu/cost_model.h"

namespace dfp {

const OperatorCost* OperatorProfile::Find(OperatorId op) const {
  for (const OperatorCost& cost : operators) {
    if (cost.op == op) {
      return &cost;
    }
  }
  return nullptr;
}

OperatorProfile BuildOperatorProfile(const ProfilingSession& session, const CompiledQuery& query,
                                     const TimeWindow& window) {
  OperatorProfile profile;
  std::unordered_map<OperatorId, uint64_t> counts;
  for (const ResolvedSample& sample : session.resolved()) {
    if (!window.Contains(sample.tsc)) {
      continue;
    }
    switch (sample.category) {
      case ResolvedSample::Category::kOperator:
        ++counts[sample.op];
        ++profile.operator_samples;
        break;
      case ResolvedSample::Category::kKernel:
        ++profile.kernel_samples;
        break;
      case ResolvedSample::Category::kUnattributed:
        break;
    }
  }
  for (PhysicalOp* op : PlanOperators(*query.plan)) {
    OperatorCost cost;
    cost.op = op->id;
    cost.label = op->label.empty() ? OpKindName(op->kind) : op->label;
    cost.samples = counts.count(op->id) != 0 ? counts[op->id] : 0;
    cost.share = profile.operator_samples > 0
                     ? static_cast<double>(cost.samples) /
                           static_cast<double>(profile.operator_samples)
                     : 0.0;
    profile.operators.push_back(std::move(cost));
  }
  std::sort(profile.operators.begin(), profile.operators.end(),
            [](const OperatorCost& a, const OperatorCost& b) { return a.op < b.op; });
  return profile;
}

std::string RenderAnnotatedPlan(const OperatorProfile& profile, const CompiledQuery& query) {
  return RenderPlanTree(*query.plan, [&](const PhysicalOp& op) {
    const OperatorCost* cost = profile.Find(op.id);
    if (cost == nullptr) {
      return std::string();
    }
    return StrFormat("(%s)", PercentString(cost->share).c_str());
  });
}

std::string RenderAnnotatedListing(const ProfilingSession& session, const CompiledQuery& query,
                                   uint32_t pipeline) {
  DFP_CHECK(pipeline < query.pipelines.size());
  const PipelineArtifact& artifact = query.pipelines[pipeline];

  // Per-IR-instruction sample counts for this pipeline's segment.
  std::unordered_map<uint32_t, uint64_t> per_instr;
  uint64_t pipeline_samples = 0;
  for (const ResolvedSample& sample : session.resolved()) {
    if (sample.segment == artifact.segment && sample.ir_id != kNoIrId) {
      ++per_instr[sample.ir_id];
      ++pipeline_samples;
    }
  }
  const TaggingDictionary& dictionary = session.dictionary();

  // Per-block subtotals keyed by block id.
  std::unordered_map<uint32_t, uint64_t> per_block;
  for (const IrListingLine& line : artifact.listing.lines) {
    if (line.instr_id != kNoIrId && per_instr.count(line.instr_id) != 0) {
      per_block[line.block] += per_instr[line.instr_id];
    }
  }

  auto percent = [&](uint64_t count) {
    return pipeline_samples > 0
               ? PercentString(static_cast<double>(count) /
                               static_cast<double>(pipeline_samples))
               : std::string("0.0%");
  };

  std::string out;
  out += StrFormat("=== %s — %zu samples in this pipeline ===\n", artifact.pipeline.name.c_str(),
                   static_cast<size_t>(pipeline_samples));
  for (const IrListingLine& line : artifact.listing.lines) {
    if (line.instr_id == kNoIrId) {
      // Block labels get a subtotal annotation, like "loopTuples: (hash join 45.7%)".
      if (line.block != kNoBlock && per_block.count(line.block) != 0) {
        out += StrFormat("%-8s %s  (block: %s)\n", "", line.text.c_str(),
                         percent(per_block[line.block]).c_str());
      } else {
        out += StrFormat("%-8s %s\n", "", line.text.c_str());
      }
      continue;
    }
    const uint64_t count = per_instr.count(line.instr_id) != 0 ? per_instr[line.instr_id] : 0;
    // Operator attribution through Log B + Log A.
    std::string owner;
    const std::vector<TaskId>* tasks = dictionary.TasksOf(line.instr_id);
    if (tasks != nullptr) {
      for (TaskId task : *tasks) {
        if (!owner.empty()) {
          owner += "+";
        }
        OperatorId op = dictionary.OperatorOf(task);
        const PhysicalOp* node = nullptr;
        for (PhysicalOp* candidate : PlanOperators(*query.plan)) {
          if (candidate->id == op) {
            node = candidate;
            break;
          }
        }
        owner += node != nullptr ? node->label : dictionary.task(task).name;
      }
    }
    out += StrFormat("%-8s %-70s %s\n", count > 0 ? percent(count).c_str() : "",
                     line.text.c_str(), owner.c_str());
  }
  return out;
}

ActivityTimeline BuildActivityTimeline(const ProfilingSession& session,
                                       const CompiledQuery& query, size_t buckets) {
  DFP_CHECK(buckets > 0);
  ActivityTimeline timeline;
  timeline.total_cycles = session.execution_cycles();
  timeline.bucket_cycles = std::max<uint64_t>(1, timeline.total_cycles / buckets + 1);

  std::vector<PhysicalOp*> operators = PlanOperators(*query.plan);
  std::unordered_map<OperatorId, size_t> series_of;
  for (PhysicalOp* op : operators) {
    series_of[op->id] = timeline.series_names.size();
    timeline.series_names.push_back(op->label.empty() ? OpKindName(op->kind) : op->label);
  }
  const size_t kernel_series = timeline.series_names.size();
  timeline.series_names.push_back("kernel");
  timeline.bucket_samples.assign(timeline.series_names.size(),
                                 std::vector<double>(buckets, 0.0));

  for (const ResolvedSample& sample : session.resolved()) {
    const size_t bucket =
        std::min(buckets - 1, static_cast<size_t>(sample.tsc / timeline.bucket_cycles));
    if (sample.category == ResolvedSample::Category::kOperator) {
      timeline.bucket_samples[series_of[sample.op]][bucket] += 1.0;
    } else if (sample.category == ResolvedSample::Category::kKernel) {
      timeline.bucket_samples[kernel_series][bucket] += 1.0;
    }
  }
  return timeline;
}

ActivityTimeline BuildWorkerActivityTimeline(const ProfilingSession& session, size_t buckets) {
  DFP_CHECK(buckets > 0);
  ActivityTimeline timeline;
  timeline.total_cycles = session.execution_cycles();
  timeline.bucket_cycles = std::max<uint64_t>(1, timeline.total_cycles / buckets + 1);

  const size_t lanes = std::max<uint32_t>(1, session.worker_count());
  for (size_t w = 0; w < lanes; ++w) {
    timeline.series_names.push_back(StrFormat("worker %zu", w));
  }
  timeline.bucket_samples.assign(lanes, std::vector<double>(buckets, 0.0));

  for (const ResolvedSample& sample : session.resolved()) {
    const size_t bucket =
        std::min(buckets - 1, static_cast<size_t>(sample.tsc / timeline.bucket_cycles));
    const size_t lane = std::min<size_t>(lanes - 1, sample.worker_id);
    timeline.bucket_samples[lane][bucket] += 1.0;
  }
  return timeline;
}

std::string RenderActivityTimeline(const ActivityTimeline& timeline) {
  TimeSeriesChart chart;
  chart.series_names = timeline.series_names;
  chart.values = timeline.bucket_samples;
  chart.total_duration_ms = CyclesToMs(timeline.total_cycles);
  return RenderTimeSeriesChart(chart);
}

MemoryProfile BuildMemoryProfile(const ProfilingSession& session, const CompiledQuery& query,
                                 const TimeWindow& window) {
  MemoryProfile profile;
  profile.total_cycles = session.execution_cycles();
  std::unordered_map<OperatorId, size_t> series_of;
  for (PhysicalOp* op : PlanOperators(*query.plan)) {
    series_of[op->id] = profile.series.size();
    MemoryProfileSeries series;
    series.label = op->label.empty() ? OpKindName(op->kind) : op->label;
    series.op = op->id;
    series.min_addr = ~0ull;
    profile.series.push_back(std::move(series));
  }
  for (const ResolvedSample& sample : session.resolved()) {
    if (sample.category != ResolvedSample::Category::kOperator || sample.addr == 0 ||
        !window.Contains(sample.tsc)) {
      continue;
    }
    MemoryProfileSeries& series = profile.series[series_of[sample.op]];
    series.points.emplace_back(sample.tsc, sample.addr);
    series.min_addr = std::min(series.min_addr, sample.addr);
    series.max_addr = std::max(series.max_addr, sample.addr);
    if (sample.mem_node != kNoNumaNode) {
      if (sample.numa_remote) {
        ++series.remote_accesses;
        if (sample.stolen) {
          ++series.stolen_remote;
        }
      } else {
        ++series.local_accesses;
      }
    }
  }
  // Drop operators without memory samples.
  profile.series.erase(std::remove_if(profile.series.begin(), profile.series.end(),
                                      [](const MemoryProfileSeries& series) {
                                        return series.points.empty();
                                      }),
                       profile.series.end());
  return profile;
}

std::string RenderMemoryProfile(const MemoryProfile& profile) {
  std::string out;
  for (const MemoryProfileSeries& series : profile.series) {
    ScatterPlot plot;
    const uint64_t located = series.local_accesses + series.remote_accesses;
    std::string locality;
    if (located > 0) {
      locality = StrFormat(", %.0f%% remote",
                           100.0 * static_cast<double>(series.remote_accesses) /
                               static_cast<double>(located));
    }
    plot.title = StrFormat("%s  (%zu samples, %.1f MB span%s)", series.label.c_str(),
                           series.points.size(),
                           static_cast<double>(series.max_addr - series.min_addr) /
                               (1024.0 * 1024.0),
                           locality.c_str());
    plot.x_label = "time (ms)";
    plot.y_label = "address offset";
    plot.x_max = CyclesToMs(profile.total_cycles);
    plot.y_max = static_cast<double>(series.max_addr - series.min_addr) + 1.0;
    plot.height = 8;
    for (const auto& [tsc, addr] : series.points) {
      plot.points.emplace_back(CyclesToMs(tsc), static_cast<double>(addr - series.min_addr));
    }
    out += RenderScatterPlot(plot);
    out += "\n";
  }
  return out;
}

std::string RenderMemoryLocality(const MemoryProfile& profile) {
  TablePrinter printer({"Operator", "Local", "Remote", "Remote %", "Stolen remote"});
  for (int c = 1; c <= 4; ++c) {
    printer.SetRightAlign(c, true);
  }
  for (const MemoryProfileSeries& series : profile.series) {
    const uint64_t located = series.local_accesses + series.remote_accesses;
    printer.AddRow(
        {series.label,
         StrFormat("%llu", static_cast<unsigned long long>(series.local_accesses)),
         StrFormat("%llu", static_cast<unsigned long long>(series.remote_accesses)),
         located > 0 ? StrFormat("%.1f", 100.0 * static_cast<double>(series.remote_accesses) /
                                             static_cast<double>(located))
                     : std::string("-"),
         StrFormat("%llu", static_cast<unsigned long long>(series.stolen_remote))});
  }
  return printer.Render();
}

ActivityTimeline BuildLocalityTimeline(const ProfilingSession& session, size_t buckets) {
  DFP_CHECK(buckets > 0);
  ActivityTimeline timeline;
  timeline.total_cycles = session.execution_cycles();
  timeline.bucket_cycles = std::max<uint64_t>(1, timeline.total_cycles / buckets + 1);
  timeline.series_names = {"local", "remote", "remote (stolen)"};
  timeline.bucket_samples.assign(timeline.series_names.size(),
                                 std::vector<double>(buckets, 0.0));
  for (const ResolvedSample& sample : session.resolved()) {
    if (sample.mem_node == kNoNumaNode) {
      continue;  // No node info: a run without address capture.
    }
    const size_t bucket =
        std::min(buckets - 1, static_cast<size_t>(sample.tsc / timeline.bucket_cycles));
    if (!sample.numa_remote) {
      timeline.bucket_samples[0][bucket] += 1.0;
    } else {
      timeline.bucket_samples[1][bucket] += 1.0;
      if (sample.stolen) {
        timeline.bucket_samples[2][bucket] += 1.0;
      }
    }
  }
  return timeline;
}

std::string RenderTaskTupleCounts(const CompiledQuery& query,
                                  const TaggingDictionary& dictionary) {
  TablePrinter printer({"Task", "Operator", "Tuples"});
  printer.SetRightAlign(2, true);
  for (const auto& [task, offset] : query.tuple_count_slots) {
    (void)offset;
    const TaskInfo& info = dictionary.task(task);
    std::string op_label;
    for (PhysicalOp* op : PlanOperators(*query.plan)) {
      if (op->id == info.op) {
        op_label = op->label;
      }
    }
    auto it = query.tuple_counts.find(task);
    printer.AddRow({info.name, op_label,
                    it != query.tuple_counts.end()
                        ? StrFormat("%llu", static_cast<unsigned long long>(it->second))
                        : std::string("-")});
  }
  return printer.Render();
}

std::string RenderMachineListing(const ProfilingSession& session, const CompiledQuery& query,
                                 const CodeMap& code_map, uint32_t pipeline) {
  DFP_CHECK(pipeline < query.pipelines.size());
  const PipelineArtifact& artifact = query.pipelines[pipeline];
  const CodeSegment& segment = code_map.segment(artifact.segment);

  std::unordered_map<uint64_t, uint64_t> per_offset;
  uint64_t total = 0;
  for (const ResolvedSample& sample : session.resolved()) {
    if (sample.segment == artifact.segment) {
      ++per_offset[sample.ip - segment.base_ip];
      ++total;
    }
  }
  std::string out = StrFormat("=== machine code of %s — %llu samples ===\n",
                              artifact.pipeline.name.c_str(),
                              static_cast<unsigned long long>(total));
  for (size_t offset = 0; offset < segment.code.size(); ++offset) {
    const uint64_t count = per_offset.count(offset) != 0 ? per_offset[offset] : 0;
    std::string share =
        count > 0 && total > 0
            ? PercentString(static_cast<double>(count) / static_cast<double>(total))
            : std::string();
    out += StrFormat("%-7s @%-5zu %-56s ; ir %%%u\n", share.c_str(), offset,
                     MInstrToString(segment.Instr(offset)).c_str(), segment.ir_ids[offset]);
  }
  return out;
}

std::string RenderAttributionStats(const AttributionStats& stats) {
  TablePrinter printer({"Attribution", "Samples", "Share"});
  printer.SetRightAlign(1, true);
  printer.SetRightAlign(2, true);
  auto share = [&](uint64_t count) {
    return stats.total > 0
               ? PercentString(static_cast<double>(count) / static_cast<double>(stats.total))
               : std::string("-");
  };
  printer.AddRow({"Engine total", StrFormat("%llu", static_cast<unsigned long long>(
                                                        stats.operator_samples +
                                                        stats.kernel_samples)),
                  share(stats.operator_samples + stats.kernel_samples)});
  printer.AddRow({"-> Operators",
                  StrFormat("%llu", static_cast<unsigned long long>(stats.operator_samples)),
                  share(stats.operator_samples)});
  printer.AddRow({"-> Kernel tasks",
                  StrFormat("%llu", static_cast<unsigned long long>(stats.kernel_samples)),
                  share(stats.kernel_samples)});
  printer.AddRow({"No attribution",
                  StrFormat("%llu", static_cast<unsigned long long>(stats.unattributed)),
                  share(stats.unattributed)});
  return printer.Render();
}

std::string RenderCostDiff(const std::vector<CostDiffRow>& rows, const std::string& before_name,
                           const std::string& after_name) {
  TablePrinter printer({"Operator", before_name, after_name, "Delta", ""});
  printer.SetRightAlign(1, true);
  printer.SetRightAlign(2, true);
  printer.SetRightAlign(3, true);
  for (const CostDiffRow& row : rows) {
    const double delta = row.after_share - row.before_share;
    printer.AddRow({row.label, PercentString(row.before_share), PercentString(row.after_share),
                    StrFormat("%+.1fpp", 100.0 * delta), row.flagged ? "!" : ""});
  }
  return printer.Render();
}

}  // namespace dfp
