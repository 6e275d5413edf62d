#include "src/profiling/serialize.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/util/check.h"
#include "src/util/text_format.h"

namespace dfp {
namespace {

constexpr const char* kDictionaryHeader = "# dfp tagging dictionary v1";
constexpr const char* kSamplesHeader = "# dfp samples v8";

[[noreturn]] void Malformed(const std::string& line) {
  throw Error("malformed profiling meta-data line: '" + line + "'");
}

TaskBoundary ParseTask(std::istringstream& stream, const std::string& line) {
  TaskBoundary task;
  uint32_t kind = 0;
  uint32_t stolen = 0;
  if (!(stream >> task.start_tsc >> task.end_tsc >> task.worker_id >> kind >> task.step >>
        task.pipeline >> task.morsel_begin >> task.morsel_end >> stolen >> task.instructions >>
        task.loads >> task.l1_misses >> task.l2_misses >> task.l3_misses >> task.remote_dram) ||
      kind > static_cast<uint32_t>(TaskKind::kSort) || stolen > 1 ||
      task.end_tsc < task.start_tsc) {
    Malformed(line);
  }
  task.kind = static_cast<TaskKind>(kind);
  task.stolen = stolen != 0;
  return task;
}

Sample ParseSample(std::istringstream& stream, const std::string& line) {
  Sample sample;
  if (!(stream >> sample.tsc >> sample.ip >> sample.addr)) {
    Malformed(line);
  }
  std::string section;
  while (stream >> section) {
    if (section == "W") {
      if (!(stream >> sample.worker_id)) {
        Malformed(line);
      }
    } else if (section == "N") {
      uint32_t node = 0;
      uint32_t remote = 0;
      if (!(stream >> node >> remote) || node > 0xFF || remote > 1) {
        Malformed(line);
      }
      sample.mem_node = static_cast<uint8_t>(node);
      sample.numa_remote = remote != 0;
    } else if (section == "T") {
      sample.stolen = true;
    } else if (section == "G") {
      uint32_t tier = 0;
      if (!(stream >> tier) || tier > 0xFF) {
        Malformed(line);
      }
      sample.tier = static_cast<uint8_t>(tier);
    } else if (section == "D") {
      if (!(stream >> sample.shard_id) || sample.shard_id == 0) {
        Malformed(line);
      }
    } else if (section == "X") {
      uint32_t machine = 0;
      if (!(stream >> machine) || machine > 0xFF) {
        Malformed(line);
      }
      sample.mem_node = static_cast<uint8_t>(machine);
      sample.cross_node = true;
    } else if (section == "R") {
      sample.has_registers = true;
      for (uint64_t& reg : sample.regs) {
        if (!(stream >> reg)) {
          Malformed(line);
        }
      }
    } else if (section == "S") {
      size_t depth = 0;
      if (!(stream >> depth)) {
        Malformed(line);
      }
      // The depth comes from the input: frames are read one at a time, so a depth the line
      // cannot back fails as malformed before it sizes anything.
      for (size_t i = 0; i < depth; ++i) {
        uint64_t ip = 0;
        if (!(stream >> ip)) {
          Malformed(line);
        }
        sample.callstack.push_back(ip);
      }
    } else {
      Malformed(line);
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
  ExpectHeader(in, kDictionaryHeader);
  TaggingDictionary dictionary;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream stream(line);
    std::string kind;
    stream >> kind;
    if (kind == "task") {
      TaskId id = 0;
      OperatorId op = 0;
      if (!(stream >> id >> op)) {
        Malformed(line);
      }
      TaskId assigned = dictionary.AddTask(op, RestOfLine(stream));
      if (assigned != id) {
        throw Error("tagging dictionary tasks out of order");
      }
    } else if (kind == "link") {
      uint32_t ir_id = 0;
      if (!(stream >> ir_id)) {
        Malformed(line);
      }
      TaskId task = 0;
      bool any = false;
      while (stream >> task) {
        dictionary.LinkInstr(ir_id, task);
        any = true;
      }
      if (!any) {
        Malformed(line);
      }
    } else {
      Malformed(line);
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
  ExpectHeader(in, kSamplesHeader);
  std::vector<Sample> samples;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream stream(line);
    std::string kind;
    stream >> kind;
    if (kind == "sample") {
      samples.push_back(ParseSample(stream, line));
    } else if (kind != "task") {
      Malformed(line);
    } else if (tasks == nullptr) {
      throw Error("sample stream carries task lines but the reader has no task sink: '" + line +
                  "'");
    } else {
      tasks->push_back(ParseTask(stream, line));
    }
  }
  return samples;
}

}  // namespace dfp
