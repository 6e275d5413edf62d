// Serialization round-trips and offline post-processing: a session reconstructed from the
// meta-data file and the sample dump must resolve identically to the live session.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/profiling/serialize.h"
#include "src/util/random.h"

namespace dfp {
namespace {

TEST(Serialize, DictionaryRoundTrip) {
  TaggingDictionary dictionary;
  TaskId scan = dictionary.AddTask(0, "scan");
  TaskId probe = dictionary.AddTask(2, "probe of join");
  dictionary.LinkInstr(10, scan);
  dictionary.LinkInstr(11, probe);
  dictionary.LinkInstr(12, scan);
  dictionary.OnAbsorb(12, 11);  // Multi-owner entry.

  std::stringstream stream;
  WriteDictionary(dictionary, stream);
  TaggingDictionary loaded = ReadDictionary(stream);
  EXPECT_EQ(loaded.tasks().size(), 2u);
  EXPECT_EQ(loaded.task(probe).name, "probe of join");
  EXPECT_EQ(loaded.OperatorOf(probe), 2u);
  ASSERT_NE(loaded.TasksOf(12), nullptr);
  EXPECT_EQ(loaded.TasksOf(12)->size(), 2u);
  EXPECT_EQ(loaded.TasksOf(99), nullptr);
}

TEST(Serialize, SamplesRoundTrip) {
  std::vector<Sample> samples;
  Sample plain;
  plain.tsc = 100;
  plain.ip = 0x1000001;
  samples.push_back(plain);
  Sample with_regs;
  with_regs.tsc = 200;
  with_regs.ip = 0x1000002;
  with_regs.addr = 0xBEEF;
  with_regs.has_registers = true;
  for (int i = 0; i < kNumMachineRegs; ++i) {
    with_regs.regs[static_cast<size_t>(i)] = static_cast<uint64_t>(i * 7);
  }
  samples.push_back(with_regs);
  Sample with_stack;
  with_stack.tsc = 300;
  with_stack.ip = 0x1000003;
  with_stack.callstack = {0x2000001, 0x2000002};
  samples.push_back(with_stack);

  std::stringstream stream;
  WriteSamples(samples, stream);
  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].tsc, 100u);
  EXPECT_FALSE(loaded[0].has_registers);
  EXPECT_TRUE(loaded[1].has_registers);
  EXPECT_EQ(loaded[1].regs[15], 105u);
  EXPECT_EQ(loaded[1].addr, 0xBEEFu);
  EXPECT_EQ(loaded[2].callstack.size(), 2u);
  EXPECT_EQ(loaded[2].callstack[1], 0x2000002u);
}

TEST(Serialize, WorkerIdsRoundTripBeyondSingleDigits) {
  // Pools larger than 9 workers produce multi-digit W tokens; sparse ids (a stream filtered to
  // a few workers) must survive as-is.
  std::vector<Sample> samples;
  for (uint32_t worker : {0u, 7u, 12u, 48u}) {
    Sample sample;
    sample.tsc = 100 + worker;
    sample.ip = 0x1000000 + worker;
    sample.worker_id = worker;
    samples.push_back(sample);
  }
  std::stringstream stream;
  WriteSamples(samples, stream);
  EXPECT_NE(stream.str().find("W 12"), std::string::npos);
  EXPECT_NE(stream.str().find("W 48"), std::string::npos);
  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded[i].worker_id, samples[i].worker_id) << i;
  }
}

TEST(Serialize, MixedWorkerStreamKeepsPerSampleIds) {
  // A merged parallel stream interleaves worker-0 samples (no W token) with tagged ones;
  // the worker id must reset to 0 between lines rather than sticking.
  std::vector<Sample> samples;
  for (uint32_t worker : {0u, 3u, 0u, 1u, 0u}) {
    Sample sample;
    sample.tsc = 500 + samples.size();
    sample.ip = 0x1000010;
    sample.has_registers = true;
    sample.worker_id = worker;
    samples.push_back(sample);
  }
  std::stringstream stream;
  WriteSamples(samples, stream);
  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded[i].worker_id, samples[i].worker_id) << i;
    EXPECT_TRUE(loaded[i].has_registers) << i;
  }
}

TEST(Serialize, SingleWorkerStreamOmitsWorkerTokens) {
  // Worker 0 is the default: single-threaded dumps carry no W token at all.
  std::vector<Sample> samples(3);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i].tsc = i;
    samples[i].ip = 0x1000000;
  }
  std::stringstream stream;
  WriteSamples(samples, stream);
  EXPECT_EQ(stream.str(),
            "# dfp samples v8\n"
            "sample 0 16777216 0\n"
            "sample 1 16777216 0\n"
            "sample 2 16777216 0\n");
  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), 3u);
  for (const Sample& sample : loaded) {
    EXPECT_EQ(sample.worker_id, 0u);
  }
}

TEST(Serialize, WorkerStreamWithoutLocalityOmitsLocalityTokens) {
  // Parallel streams without locality info carry W tokens but no N/T tokens, and read back
  // with the locality fields at their defaults.
  std::vector<Sample> samples(2);
  samples[0].tsc = 1;
  samples[0].ip = 0x1000000;
  samples[1].tsc = 2;
  samples[1].ip = 0x1000000;
  samples[1].worker_id = 5;
  std::stringstream stream;
  WriteSamples(samples, stream);
  EXPECT_NE(stream.str().find(" W 5"), std::string::npos);
  EXPECT_EQ(stream.str().find(" N "), std::string::npos);
  EXPECT_EQ(stream.str().find(" T"), std::string::npos);
  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].worker_id, 5u);
  EXPECT_EQ(loaded[0].mem_node, kNoNumaNode);
  EXPECT_FALSE(loaded[1].stolen);
}

TEST(Serialize, OptionalTokensParseInAnyCombination) {
  // Every per-sample token is optional; a line that omits one reads that field at its default,
  // and the locality tokens combine freely with W and S.
  std::stringstream stream(
      "# dfp samples v8\n"
      "sample 100 16777217 0\n"
      "sample 200 16777218 48879 W 2\n"
      "sample 300 16777219 0 W 7 S 2 33554433 33554434\n"
      "sample 400 16777220 0 W 2 N 1 1 T\n");
  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), 4u);
  EXPECT_EQ(loaded[0].worker_id, 0u);
  EXPECT_EQ(loaded[1].worker_id, 2u);
  EXPECT_EQ(loaded[1].addr, 48879u);
  EXPECT_EQ(loaded[2].worker_id, 7u);
  ASSERT_EQ(loaded[2].callstack.size(), 2u);
  EXPECT_EQ(loaded[2].callstack[1], 33554434u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded[i].mem_node, kNoNumaNode) << i;
    EXPECT_FALSE(loaded[i].numa_remote) << i;
    EXPECT_FALSE(loaded[i].stolen) << i;
  }
  EXPECT_EQ(loaded[3].worker_id, 2u);
  EXPECT_EQ(loaded[3].mem_node, 1);
  EXPECT_TRUE(loaded[3].numa_remote);
  EXPECT_TRUE(loaded[3].stolen);
  for (const Sample& sample : loaded) {
    EXPECT_EQ(sample.tier, 0);
    EXPECT_EQ(sample.shard_id, 0u);
    EXPECT_FALSE(sample.has_registers);
  }
}

TEST(Serialize, RejectsTruncatedAndUnknownSampleTokens) {
  // A token missing its payload, a short register or callstack list, or a token the format
  // does not define is malformed: the loader fails cleanly instead of guessing. A callstack
  // depth the line cannot back is malformed too, never an allocation.
  for (const char* line : {"sample 100 16777217 0 W", "sample 100 16777217 0 W x",
                           "sample 100 16777217 0 G", "sample 100 16777217 0 S 3 1 2",
                           "sample 100 16777217 0 R 1 2 3", "sample 100 16777217 0 Q 1",
                           "sample 100 16777217", "sample 1 2 3 S 99999999999999999",
                           "sample 1 2 3 S 2305843009213693951"}) {
    std::stringstream stream(std::string("# dfp samples v8\n") + line + "\n");
    EXPECT_THROW(ReadSamples(stream), Error) << line;
  }
}

TEST(Serialize, LocalityRoundTrip) {
  // Every per-sample combination of node/remote/stolen must survive the round trip
  // independently.
  std::vector<Sample> samples;
  {
    Sample local;  // Node info, local access.
    local.tsc = 10;
    local.ip = 0x1000001;
    local.mem_node = 0;
    samples.push_back(local);
  }
  {
    Sample remote;  // Remote access off worker 3, node 2.
    remote.tsc = 20;
    remote.ip = 0x1000002;
    remote.worker_id = 3;
    remote.mem_node = 2;
    remote.numa_remote = true;
    samples.push_back(remote);
  }
  {
    Sample stolen;  // Stolen morsel, remote access.
    stolen.tsc = 30;
    stolen.ip = 0x1000003;
    stolen.worker_id = 1;
    stolen.mem_node = 63;
    stolen.numa_remote = true;
    stolen.stolen = true;
    samples.push_back(stolen);
  }
  {
    Sample plain;  // No locality info at all: no N/T tokens on its line.
    plain.tsc = 40;
    plain.ip = 0x1000004;
    samples.push_back(plain);
  }
  std::stringstream stream;
  WriteSamples(samples, stream);
  EXPECT_NE(stream.str().find("N 2 1"), std::string::npos);
  EXPECT_NE(stream.str().find(" T"), std::string::npos);
  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(loaded[i].worker_id, samples[i].worker_id) << i;
    EXPECT_EQ(loaded[i].mem_node, samples[i].mem_node) << i;
    EXPECT_EQ(loaded[i].numa_remote, samples[i].numa_remote) << i;
    EXPECT_EQ(loaded[i].stolen, samples[i].stolen) << i;
  }
}

TEST(Serialize, RejectsMalformedLocalityTokens) {
  // Node ids are one byte and the remote flag is 0/1; anything else is malformed, not clamped.
  std::stringstream big_node("# dfp samples v8\nsample 100 16777217 0 N 300 0\n");
  EXPECT_THROW(ReadSamples(big_node), Error);
  std::stringstream bad_remote("# dfp samples v8\nsample 100 16777217 0 N 1 2\n");
  EXPECT_THROW(ReadSamples(bad_remote), Error);
  std::stringstream truncated("# dfp samples v8\nsample 100 16777217 0 N 1\n");
  EXPECT_THROW(ReadSamples(truncated), Error);
}

TEST(Serialize, RejectsMalformedInput) {
  {
    std::stringstream stream("not a header\n");
    EXPECT_THROW(ReadDictionary(stream), Error);
  }
  {
    std::stringstream stream("# dfp tagging dictionary v1\nbogus 1 2\n");
    EXPECT_THROW(ReadDictionary(stream), Error);
  }
  {
    std::stringstream stream("# dfp samples v8\nsample nope\n");
    EXPECT_THROW(ReadSamples(stream), Error);
  }
}

// Reads `text` followed by `bad` and expects the malformed-line error naming `format` and the
// line `bad` became: the reader refuses the field instead of wrapping, truncating or skipping it.
template <typename Read>
void ExpectMalformedLine(const std::string& format, const std::string& text,
                         const std::string& bad, Read read) {
  std::istringstream in(text + bad + "\n");
  const size_t line = std::count(text.begin(), text.end(), '\n') + 1;
  try {
    read(in);
    ADD_FAILURE() << "accepted '" << bad << "'";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "malformed " + format + " line " + std::to_string(line) + ": '" + bad + "'");
  }
}

TEST(Serialize, RefusesSignedOverflowingAndTrailingJunkFields) {
  // Per row one fault: a sign on an unsigned field, a value one past its field's width
  // (2^64, 2^32 for ids, 256 for nodes and tiers, kMaxWorkers for workers), trailing bytes on a
  // field, or a token after the line's last field. A link to a task the dictionary lacks, or a
  // non-numeric task, is malformed too.
  const std::string dictionary = "# dfp tagging dictionary v1\ntask 0 1 scan\n";
  for (const char* bad : {"link 5 7", "link 5 -1", "link 5 +0", "link 5 0 x", "link 5 0 0x",
                          "link 4294967296 0", "task 1 -1 probe", "task 1 +2 probe",
                          "task 1 4294967296 probe", "task 1x 2 probe"}) {
    ExpectMalformedLine("tagging dictionary", dictionary, bad,
                        [](std::istream& in) { ReadDictionary(in); });
  }
  const std::string samples = "# dfp samples v8\nsample 1 2 3\n";
  for (const char* bad :
       {"sample -1 2 3", "sample +7 2 3", "sample 1 2 3 W -4", "sample 18446744073709551616 2 3",
        "sample 1 2 3 W 4294967296", "sample 1 2 3 W 64", "sample 1 2 3 N 256 0",
        "sample 1 2 3 G 256", "sample 1 2 3 X 256", "sample 1 2 3 D 4294967296",
        "sample 12x 2 3", "sample 1 2 3 N 1 1x", "sample 1 2 3 S 1 5 7",
        "task -1 10 0 0 0 0 0 0 0 0 0 0 0 0 0", "task 0 10 64 0 0 0 0 0 0 0 0 0 0 0 0",
        "task 0 10 0 0 0 4294967296 0 0 0 0 0 0 0 0 0", "task 0 10 0 0 0 0 0 0 0 0 0 0 0 0 12x",
        "task 0 10 0 0 0 0 0 0 0 0 0 0 0 0 0 7"}) {
    ExpectMalformedLine("sample stream", samples, bad, [](std::istream& in) {
      std::vector<TaskBoundary> tasks;
      ReadSamples(in, &tasks);
    });
  }
}

TEST(Serialize, TierTokensRoundTrip) {
  // A non-optimized tier is written as a G token and read back; the optimized tier is not
  // written at all.
  std::vector<Sample> samples;
  {
    Sample baseline;
    baseline.tsc = 10;
    baseline.ip = 0x1000001;
    baseline.tier = 1;
    samples.push_back(baseline);
  }
  {
    Sample optimized;  // Tier 0 emits no G token.
    optimized.tsc = 30;
    optimized.ip = 0x1000002;
    samples.push_back(optimized);
  }

  std::stringstream stream;
  WriteSamples(samples, stream);
  EXPECT_EQ(stream.str(),
            "# dfp samples v8\n"
            "sample 10 16777217 0 G 1\n"
            "sample 30 16777218 0\n");

  std::vector<Sample> loaded = ReadSamples(stream);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].tier, 1);
  EXPECT_EQ(loaded[1].tier, 0);
}

TEST(Serialize, EmptySidebandWritesThePlainStream) {
  // No tier, no task boundaries: passing an empty task list writes the same bytes as passing
  // none, with no G tokens and no task lines, and a sink reading it stays empty.
  std::vector<Sample> samples(2);
  samples[0].tsc = 100;
  samples[0].ip = 0x1000001;
  samples[1].tsc = 200;
  samples[1].ip = 0x1000002;
  samples[1].worker_id = 3;
  std::stringstream with_sideband;
  WriteSamples(samples, with_sideband, std::vector<TaskBoundary>());
  std::stringstream classic;
  WriteSamples(samples, classic);
  EXPECT_EQ(with_sideband.str(), classic.str());
  EXPECT_EQ(classic.str(),
            "# dfp samples v8\n"
            "sample 100 16777217 0\n"
            "sample 200 16777218 0 W 3\n");

  std::vector<TaskBoundary> sink;
  ASSERT_EQ(ReadSamples(classic, &sink).size(), 2u);
  EXPECT_TRUE(sink.empty());
}

TEST(Serialize, RejectsUnknownLinesUnsunkTasksAndWideTiers) {
  // The stream carries samples and task lines only. Service decisions live in the service's
  // logs, so an event, sched or reopt line is malformed, sink or no sink.
  for (const char* line : {"event 5 tier promoted", "sched 100 repair 0 applied",
                           "reopt 100 decided fp=12ab"}) {
    std::stringstream no_sink(std::string("# dfp samples v8\n") + line +
                              "\nsample 100 16777217 0\n");
    EXPECT_THROW(ReadSamples(no_sink), Error) << line;
    std::stringstream with_sink(no_sink.str());
    std::vector<TaskBoundary> tasks;
    EXPECT_THROW(ReadSamples(with_sink, &tasks), Error) << line;
  }
  // A stream with task lines needs a sink: silently dropping them would lose the schedule the
  // critical-path DAG is rebuilt from.
  std::stringstream unsunk_task(
      "# dfp samples v8\ntask 0 10 0 0 0 4294967295 0 0 0 0 0 0 0 0 0\nsample 100 16777217 0\n");
  EXPECT_THROW(ReadSamples(unsunk_task), Error);
  // Malformed tier payloads are rejected, not truncated.
  std::stringstream wide_tier("# dfp samples v8\nsample 100 16777217 0 G 300\n");
  EXPECT_THROW(ReadSamples(wide_tier), Error);
}

TEST(Serialize, TaskBoundariesRoundTrip) {
  // Task-boundary records survive the round trip field for field, written as a block right
  // after the header in the order given.
  std::vector<Sample> samples;
  Sample plain;
  plain.tsc = 500;
  plain.ip = 0x1000001;
  samples.push_back(plain);

  std::vector<TaskBoundary> tasks;
  {
    TaskBoundary host;
    host.start_tsc = 0;
    host.end_tsc = 120;
    host.worker_id = 0;
    host.kind = TaskKind::kHostStep;
    host.step = 0;
    tasks.push_back(host);
  }
  {
    TaskBoundary morsel;
    morsel.start_tsc = 120;
    morsel.end_tsc = 900;
    morsel.worker_id = 3;
    morsel.kind = TaskKind::kMorsel;
    morsel.step = 1;
    morsel.pipeline = 2;
    morsel.morsel_begin = 4096;
    morsel.morsel_end = 8192;
    morsel.stolen = true;
    morsel.instructions = 7000;
    morsel.loads = 1500;
    morsel.l1_misses = 90;
    morsel.l2_misses = 40;
    morsel.l3_misses = 12;
    morsel.remote_dram = 5;
    tasks.push_back(morsel);
  }

  std::stringstream stream;
  WriteSamples(samples, stream, tasks);
  const std::string text = stream.str();
  EXPECT_LT(text.find("task 0 120 "), text.find("sample 500"));

  std::vector<TaskBoundary> loaded;
  std::vector<Sample> reread = ReadSamples(stream, &loaded);
  ASSERT_EQ(reread.size(), 1u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].kind, TaskKind::kHostStep);
  EXPECT_EQ(loaded[0].pipeline, kNoPipeline);
  EXPECT_EQ(loaded[1].start_tsc, 120u);
  EXPECT_EQ(loaded[1].end_tsc, 900u);
  EXPECT_EQ(loaded[1].worker_id, 3u);
  EXPECT_EQ(loaded[1].kind, TaskKind::kMorsel);
  EXPECT_EQ(loaded[1].step, 1u);
  EXPECT_EQ(loaded[1].pipeline, 2u);
  EXPECT_EQ(loaded[1].morsel_begin, 4096u);
  EXPECT_EQ(loaded[1].morsel_end, 8192u);
  EXPECT_TRUE(loaded[1].stolen);
  EXPECT_EQ(loaded[1].instructions, 7000u);
  EXPECT_EQ(loaded[1].loads, 1500u);
  EXPECT_EQ(loaded[1].l1_misses, 90u);
  EXPECT_EQ(loaded[1].l2_misses, 40u);
  EXPECT_EQ(loaded[1].l3_misses, 12u);
  EXPECT_EQ(loaded[1].remote_dram, 5u);
}

TEST(Serialize, RejectsMalformedTaskLines) {
  // Unknown kind, out-of-range stolen flag, end < start.
  std::vector<TaskBoundary> tasks;
  std::stringstream bad_kind(
      "# dfp samples v8\ntask 0 10 0 9 0 4294967295 0 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(ReadSamples(bad_kind, &tasks), Error);
  std::stringstream bad_stolen("# dfp samples v8\ntask 0 10 0 1 0 0 0 64 2 0 0 0 0 0 0\n");
  EXPECT_THROW(ReadSamples(bad_stolen, &tasks), Error);
  std::stringstream backwards("# dfp samples v8\ntask 10 5 0 1 0 0 0 64 0 0 0 0 0 0 0\n");
  EXPECT_THROW(ReadSamples(backwards, &tasks), Error);
}

TEST(Serialize, OneHeaderWrittenAndEveryOtherRefused) {
  // The writer emits v8 whatever the stream carries...
  std::stringstream empty;
  WriteSamples({}, empty);
  EXPECT_EQ(empty.str(), "# dfp samples v8\n");
  std::vector<TaskBoundary> tasks(1);
  std::stringstream full;
  WriteSamples({}, full, tasks);
  EXPECT_EQ(full.str().rfind("# dfp samples v8\n", 0), 0u);

  // ...and the reader refuses every other version, older or newer, with one message.
  for (int version = 1; version <= 9; ++version) {
    if (version == 8) {
      continue;
    }
    std::stringstream stream("# dfp samples v" + std::to_string(version) +
                             "\nsample 100 16777217 0\n");
    try {
      ReadSamples(stream, &tasks);
      ADD_FAILURE() << "v" << version << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported file header"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, OfflineResolutionMatchesLiveSession) {
  Database db;
  {
    Random rng(3);
    TableBuilder products = db.CreateTableBuilder(
        {"products", {{"id", ColumnType::kInt64}, {"category", ColumnType::kString}}});
    for (int i = 0; i < 50; ++i) {
      products.BeginRow();
      products.SetI64(0, i);
      products.SetString(1, i % 2 == 0 ? "Chip" : "Other");
    }
    db.AddTable(products.Finish());
    TableBuilder sales = db.CreateTableBuilder(
        {"sales", {{"id", ColumnType::kInt64}, {"price", ColumnType::kDecimal}}});
    for (int i = 0; i < 5000; ++i) {
      sales.BeginRow();
      sales.SetI64(0, rng.Uniform(0, 49));
      sales.SetDecimal(1, rng.Uniform(1, 1000));
    }
    db.AddTable(sales.Finish());
  }
  QueryEngine engine(&db);
  ProfilingConfig config;
  config.period = 200;
  ProfilingSession live(config);
  PlanBuilder products = PlanBuilder::Scan(db.table("products"));
  PlanBuilder sales = PlanBuilder::Scan(db.table("sales"));
  sales.JoinWith(std::move(products), {"id"}, {"id"}, {"category"});
  sales.GroupByKeys({"category"},
                    NamedExprs("total", MakeAggregate(AggOp::kSum, sales.Col("price"))));
  CompiledQuery query = engine.Compile(sales.Build(), &live, "offline");
  engine.Execute(query);

  // Serialize the meta-data and samples, then resolve in a fresh session.
  std::stringstream dict_file;
  WriteDictionary(live.dictionary(), dict_file);
  std::stringstream sample_file;
  WriteSamples(live.samples(), sample_file);

  ProfilingSession offline(config);
  offline.LoadForPostProcessing(ReadDictionary(dict_file), ReadSamples(sample_file),
                                live.execution_cycles());

  live.Resolve(db.code_map());
  offline.Resolve(db.code_map());
  ASSERT_EQ(live.resolved().size(), offline.resolved().size());
  for (size_t i = 0; i < live.resolved().size(); ++i) {
    EXPECT_EQ(live.resolved()[i].op, offline.resolved()[i].op) << i;
    EXPECT_EQ(live.resolved()[i].task, offline.resolved()[i].task) << i;
    EXPECT_EQ(static_cast<int>(live.resolved()[i].category),
              static_cast<int>(offline.resolved()[i].category))
        << i;
  }
}

}  // namespace
}  // namespace dfp
