// Google-benchmark microbenchmarks of the substrate itself (wall-clock, not simulated cycles):
// hashing, cache model, hash-table insert through the compiled runtime, query compilation, and
// end-to-end pipeline execution throughput of the VCPU.
#include <benchmark/benchmark.h>

#include "src/engine/query_engine.h"
#include "src/plan/builder.h"
#include "src/runtime/hashtable.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/util/hash.h"
#include "src/vcpu/cpu.h"

namespace dfp {
namespace {

void BM_HashKey(benchmark::State& state) {
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKey(++key));
  }
}
BENCHMARK(BM_HashKey);

void BM_CacheAccessSequential(benchmark::State& state) {
  CacheHierarchy cache;
  uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(addr += 8));
  }
}
BENCHMARK(BM_CacheAccessSequential);

void BM_CacheAccessRandom(benchmark::State& state) {
  CacheHierarchy cache;
  uint64_t x = 88172645463325252ull;
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    benchmark::DoNotOptimize(cache.Access(x & ((64u << 20) - 1)));
  }
}
BENCHMARK(BM_CacheAccessRandom);

struct RuntimeFixture {
  RuntimeFixture() : mem(64ull << 20) {
    region = mem.CreateRegion("ht", 48ull << 20);
    runtime = std::make_unique<Runtime>(&code_map);
  }
  VMem mem;
  CodeMap code_map;
  Pmu pmu;
  uint32_t region;
  std::unique_ptr<Runtime> runtime;
};

void BM_CompiledHashTableInsert(benchmark::State& state) {
  RuntimeFixture fixture;
  constexpr uint64_t kCapacity = 1 << 20;
  VAddr table = CreateHashTable(fixture.mem, fixture.region, kCapacity, 16);
  Cpu cpu(fixture.mem, fixture.code_map, fixture.pmu);
  uint64_t key = 0;
  uint64_t inserted = 0;
  for (auto _ : state) {
    if (inserted == kCapacity) {  // Recycle: the benchmark may run past one table's capacity.
      fixture.mem.ResetRegion(fixture.region);
      table = CreateHashTable(fixture.mem, fixture.region, kCapacity, 16);
      inserted = 0;
    }
    uint64_t args[] = {table, HashKey(++key)};
    benchmark::DoNotOptimize(cpu.CallFunction(fixture.runtime->ht_insert_fn(), args));
    ++inserted;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CompiledHashTableInsert);

struct EngineFixture {
  EngineFixture() {
    db = std::make_unique<Database>();
    TpchOptions options;
    options.scale = 0.002;
    GenerateTpch(*db, options);
  }
  std::unique_ptr<Database> db;
};

EngineFixture& SharedEngine() {
  static EngineFixture fixture;
  return fixture;
}

void BM_CompileFig9(benchmark::State& state) {
  EngineFixture& fixture = SharedEngine();
  QueryEngine engine(fixture.db.get());
  for (auto _ : state) {
    CompiledQuery query = engine.Compile(BuildFig9Plan(*fixture.db), nullptr, "bench");
    benchmark::DoNotOptimize(query.pipelines.size());
  }
}
BENCHMARK(BM_CompileFig9);

void BM_ExecuteFig9(benchmark::State& state) {
  EngineFixture& fixture = SharedEngine();
  QueryEngine engine(fixture.db.get());
  CompiledQuery query = engine.Compile(BuildFig9Plan(*fixture.db), nullptr, "bench");
  uint64_t simulated = 0;
  uint64_t instructions = 0;
  for (auto _ : state) {
    Result result = engine.Execute(query);
    benchmark::DoNotOptimize(result.row_count());
    simulated += engine.last_cycles();
    instructions += engine.last_cpu_stats().instructions;
  }
  state.counters["sim_instr/s"] = benchmark::Counter(static_cast<double>(instructions),
                                                     benchmark::Counter::kIsRate);
  state.counters["sim_cycles_per_run"] =
      static_cast<double>(simulated) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ExecuteFig9)->Unit(benchmark::kMillisecond);

void BM_ExecuteFig9Profiled(benchmark::State& state) {
  EngineFixture& fixture = SharedEngine();
  QueryEngine engine(fixture.db.get());
  ProfilingConfig config;
  config.period = 5000;
  for (auto _ : state) {
    ProfilingSession session(config);
    CompiledQuery query = engine.Compile(BuildFig9Plan(*fixture.db), &session, "bench");
    Result result = engine.Execute(query);
    session.Resolve(fixture.db->code_map());
    benchmark::DoNotOptimize(session.resolved().size());
  }
}
BENCHMARK(BM_ExecuteFig9Profiled)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dfp

BENCHMARK_MAIN();
