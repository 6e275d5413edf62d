#include "src/profiling/serialize.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

constexpr const char* kDictionaryHeader = "# dfp tagging dictionary v1";
constexpr const char* kSamplesHeader = "# dfp samples v8";

TaskBoundary ParseTask(LineReader& reader) {
  TaskBoundary task;
  reader.Fields(task.start_tsc, task.end_tsc);
  task.worker_id = reader.Enum(kMaxWorkers - 1);
  task.kind = reader.Enum(TaskKind::kSort);
  reader.Fields(task.step, task.pipeline, task.morsel_begin, task.morsel_end);
  task.stolen = reader.Flag();
  reader.Fields(task.instructions, task.loads, task.l1_misses, task.l2_misses, task.l3_misses,
                task.remote_dram);
  reader.End();
  if (task.end_tsc < task.start_tsc) {
    reader.Reject();
  }
  return task;
}

Sample ParseSample(LineReader& reader) {
  Sample sample;
  reader.Fields(sample.tsc, sample.ip, sample.addr);
  while (!reader.AtEnd()) {
    const std::string_view section = reader.Word();
    if (section == "W") {
      sample.worker_id = reader.Enum(kMaxWorkers - 1);
    } else if (section == "N") {
      sample.mem_node = reader.Read<uint8_t>();
      sample.numa_remote = reader.Flag();
    } else if (section == "T") {
      sample.stolen = true;
    } else if (section == "G") {
      sample.tier = reader.Read<uint8_t>();
    } else if (section == "D") {
      sample.shard_id = reader.Read<uint32_t>();
      if (sample.shard_id == 0) {
        reader.Reject();
      }
    } else if (section == "X") {
      sample.mem_node = reader.Read<uint8_t>();
      sample.cross_node = true;
    } else if (section == "R") {
      sample.has_registers = true;
      for (uint64_t& reg : sample.regs) {
        reg = reader.Read<uint64_t>();
      }
    } else if (section == "S") {
      // The depth comes from the input: frames are read one at a time, so a depth the line
      // cannot back fails as malformed before it sizes anything.
      const uint64_t depth = reader.Read<uint64_t>();
      for (uint64_t i = 0; i < depth; ++i) {
        sample.callstack.push_back(reader.Read<uint64_t>());
      }
    } else {
      reader.Reject();
    }
  }
  return sample;
}

}  // namespace

void WriteDictionary(const TaggingDictionary& dictionary, std::ostream& out) {
  out << kDictionaryHeader << "\n";
  for (const TaskInfo& task : dictionary.tasks()) {
    out << "task " << task.id << " " << task.op << " " << task.name << "\n";
  }
  // Log B entries, ordered by instruction id for a stable file.
  std::vector<uint32_t> ids;
  ids.reserve(dictionary.entries().size());
  for (const auto& [ir_id, owners] : dictionary.entries()) {
    (void)owners;
    ids.push_back(ir_id);
  }
  std::sort(ids.begin(), ids.end());
  for (uint32_t ir_id : ids) {
    out << "link " << ir_id;
    for (TaskId task : *dictionary.TasksOf(ir_id)) {
      out << " " << task;
    }
    out << "\n";
  }
}

TaggingDictionary ReadDictionary(std::istream& in) {
  LineReader reader(in, "tagging dictionary");
  reader.ExpectHeader(kDictionaryHeader);
  TaggingDictionary dictionary;
  while (reader.NextRecord()) {
    const std::string_view kind = reader.Word();
    if (kind == "task") {
      const TaskId id = reader.Read<TaskId>();
      const OperatorId op = reader.Read<OperatorId>();
      if (dictionary.AddTask(op, reader.Rest()) != id) {
        throw Error("tagging dictionary tasks out of order");
      }
    } else if (kind == "link") {
      const uint32_t ir_id = reader.Read<uint32_t>();
      do {
        // A link names a task an earlier task line declared.
        const TaskId task = reader.Read<TaskId>();
        if (task >= dictionary.tasks().size()) {
          reader.Reject();
        }
        dictionary.LinkInstr(ir_id, task);
      } while (!reader.AtEnd());
    } else {
      reader.Reject();
    }
  }
  return dictionary;
}

void WriteSamples(const std::vector<Sample>& samples, std::ostream& out,
                  const std::vector<TaskBoundary>& tasks) {
  out << kSamplesHeader << "\n";
  // Task boundaries come first, in execution order: they describe the schedule the samples were
  // taken under, and a reader rebuilding the task DAG should not have to scan the whole stream.
  for (const TaskBoundary& task : tasks) {
    out << "task " << task.start_tsc << " " << task.end_tsc << " " << task.worker_id << " "
        << static_cast<uint32_t>(task.kind) << " " << task.step << " " << task.pipeline << " "
        << task.morsel_begin << " " << task.morsel_end << " " << (task.stolen ? 1 : 0) << " "
        << task.instructions << " " << task.loads << " " << task.l1_misses << " "
        << task.l2_misses << " " << task.l3_misses << " " << task.remote_dram << "\n";
  }
  for (const Sample& sample : samples) {
    out << "sample " << sample.tsc << " " << sample.ip << " " << sample.addr;
    if (sample.worker_id != 0) {
      out << " W " << sample.worker_id;
    }
    if (sample.cross_node) {
      // Cross-machine access: `mem_node` holds the owning machine node, not a socket, so the
      // X token replaces the N token rather than accompanying it.
      out << " X " << static_cast<uint32_t>(sample.mem_node);
    } else if (sample.mem_node != kNoNumaNode || sample.numa_remote) {
      out << " N " << static_cast<uint32_t>(sample.mem_node) << " "
          << (sample.numa_remote ? 1 : 0);
    }
    if (sample.stolen) {
      out << " T";
    }
    if (sample.tier != 0) {
      out << " G " << static_cast<uint32_t>(sample.tier);
    }
    if (sample.shard_id != 0) {
      out << " D " << sample.shard_id;
    }
    if (sample.has_registers) {
      out << " R";
      for (uint64_t reg : sample.regs) {
        out << " " << reg;
      }
    }
    if (!sample.callstack.empty()) {
      out << " S " << sample.callstack.size();
      for (uint64_t ip : sample.callstack) {
        out << " " << ip;
      }
    }
    out << "\n";
  }
}

std::vector<Sample> ReadSamples(std::istream& in, std::vector<TaskBoundary>* tasks) {
  LineReader reader(in, "sample stream");
  reader.ExpectHeader(kSamplesHeader);
  std::vector<Sample> samples;
  while (reader.NextRecord()) {
    const std::string_view kind = reader.Word();
    if (kind == "sample") {
      samples.push_back(ParseSample(reader));
    } else if (kind != "task") {
      reader.Reject();
    } else if (tasks == nullptr) {
      throw Error("sample stream carries task lines but the reader has no task sink: '" +
                  reader.line() + "'");
    } else {
      tasks->push_back(ParseTask(reader));
    }
  }
  return samples;
}

}  // namespace dfp
