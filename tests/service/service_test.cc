// QueryService: plan-cache reuse (zero new code, bit-identical results, attribution-parity
// profiles against one shared Tagging Dictionary), concurrent-session profile isolation,
// admission control, deadlines, LRU eviction, catalog invalidation, and fleet profile
// aggregation.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/engine/codegen.h"
#include "src/engine/query_engine.h"
#include "src/profiling/serialize.h"
#include "src/runtime/hashtable.h"
#include "src/service/query_service.h"
#include "src/service/service_profile.h"
#include "src/sql/binder.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"

namespace dfp {
namespace {

ServiceConfig TestConfig() {
  ServiceConfig config;
  config.parallel.workers = 4;
  config.max_active_sessions = 2;
  config.session_hashtables_bytes = 32ull << 20;
  config.session_output_bytes = 16ull << 20;
  config.session_state_bytes = 512ull * 1024;
  config.profiling.period = 311;
  return config;
}

std::unique_ptr<Database> MakeDb(const ServiceConfig& config) {
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  auto db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.01;
  GenerateTpch(*db, options);
  return db;
}

PhysicalOpPtr Plan(Database& db, const std::string& name) {
  return BuildQueryPlan(db, FindQuery(name));
}

uint64_t TotalCodeIps(const CodeMap& code_map) {
  uint64_t total = 0;
  for (const CodeSegment& segment : code_map.segments()) {
    total += segment.code.size();
  }
  return total;
}

std::string DumpSamples(const ProfilingSession& session) {
  std::ostringstream out;
  WriteSamples(session.samples(), out);
  return out.str();
}

std::string DumpDictionary(const TaggingDictionary& dictionary) {
  std::ostringstream out;
  WriteDictionary(dictionary, out);
  return out.str();
}

TEST(QueryServiceTest, SessionRegionsAreCacheCongruentToSharedRegions) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const VMem& mem = db->mem();
  const uint64_t stride = kCacheCongruenceBytes;
  for (const MemRegion& region : mem.regions()) {
    if (region.name.find("session") != 0 || region.name.find(".pad") != std::string::npos) {
      continue;
    }
    uint64_t model_base = 0;
    if (region.name.find("hashtables") != std::string::npos) {
      model_base = mem.region(db->hashtables_region()).base;
    } else if (region.name.find("state") != std::string::npos) {
      model_base = mem.region(db->state_region()).base;
    } else {
      model_base = mem.region(db->output_region()).base;
    }
    EXPECT_EQ(region.base % stride, model_base % stride) << region.name;
  }
}

TEST(QueryServiceTest, ConfigsThatCannotRunThrowInsteadOfAborting) {
  const ServiceConfig config = TestConfig();
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  Database db(db_config);
  // CheckServiceConfig runs before any member is built.
  ServiceConfig no_slot = config;
  no_slot.max_active_sessions = 0;
  EXPECT_THROW({ QueryService service(db, no_slot); }, Error);
  ServiceConfig reopt_alone = config;
  reopt_alone.reopt.enabled = true;
  EXPECT_THROW({ QueryService service(db, reopt_alone); }, Error);
  // One slot more than the database's head room holds: an error, not an arena abort.
  ServiceConfig crowded = config;
  crowded.max_active_sessions = 3;
  EXPECT_THROW({ QueryService service(db, crowded); }, Error);
}

TEST(QueryServiceTest, WarmHitAddsNoCodeAndMatchesColdRun) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);

  // Sequential baseline from the plain engine, before the service touches anything.
  QueryEngine engine(db.get());
  CompiledQuery sequential = engine.Compile(Plan(*db, "q3"), nullptr, "q3_seq");
  Result expected = engine.Execute(sequential);

  QueryService service(*db, config);
  TicketId cold = service.Submit(Plan(*db, "q3"), "q3");
  service.Drain();
  const size_t segments_after_cold = db->code_map().segments().size();
  const uint64_t code_after_cold = TotalCodeIps(db->code_map());

  TicketId warm = service.Submit(Plan(*db, "q3"), "q3");
  service.Drain();

  // Zero new code-segment bytes on the warm hit.
  EXPECT_EQ(db->code_map().segments().size(), segments_after_cold);
  EXPECT_EQ(TotalCodeIps(db->code_map()), code_after_cold);

  const QueryTicket& cold_ticket = service.ticket(cold);
  const QueryTicket& warm_ticket = service.ticket(warm);
  EXPECT_EQ(cold_ticket.status, TicketStatus::kDone);
  EXPECT_EQ(warm_ticket.status, TicketStatus::kDone);
  EXPECT_FALSE(cold_ticket.cache_hit);
  EXPECT_TRUE(warm_ticket.cache_hit);
  EXPECT_EQ(service.plan_cache().stats().hits, 1u);
  EXPECT_EQ(service.plan_cache().stats().misses, 1u);

  // The warm execution pays only the lookup, not the compile.
  EXPECT_EQ(warm_ticket.compile_cycles, CompileCostModel().cache_lookup_cycles);
  EXPECT_GT(cold_ticket.compile_cycles, 100u * warm_ticket.compile_cycles);

  // Bit-identical results, both equal to the sequential engine's.
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(cold_ticket.result, expected, true, &diff)) << diff;
  EXPECT_EQ(cold_ticket.result.rows(), warm_ticket.result.rows());
}

TEST(QueryServiceTest, WarmProfileIsIdenticalToColdProfile) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  TicketId cold = service.Submit(Plan(*db, "q1"), "q1");
  service.Drain();
  TicketId warm = service.Submit(Plan(*db, "q1"), "q1");
  service.Drain();

  const QueryTicket& cold_ticket = service.ticket(cold);
  const QueryTicket& warm_ticket = service.ticket(warm);
  ASSERT_NE(cold_ticket.session, nullptr);
  ASSERT_NE(warm_ticket.session, nullptr);
  ASSERT_FALSE(cold_ticket.session->samples().empty());

  // Same code, same schedule, same (reset) regions: the warm hit's sample stream and resolved
  // attribution are byte-identical to the cold run's — a cache hit never distorts a profile.
  EXPECT_EQ(DumpSamples(*cold_ticket.session), DumpSamples(*warm_ticket.session));
  const AttributionStats cold_stats = cold_ticket.session->Stats();
  const AttributionStats warm_stats = warm_ticket.session->Stats();
  EXPECT_EQ(cold_stats.total, warm_stats.total);
  EXPECT_EQ(cold_stats.operator_samples, warm_stats.operator_samples);
  EXPECT_EQ(cold_stats.via_tag, warm_stats.via_tag);
  EXPECT_EQ(cold_ticket.execute_cycles, warm_ticket.execute_cycles);
}

TEST(QueryServiceTest, WarmHitsResolveAgainstTheEntrysOwnDictionary) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId cold = service.Submit(Plan(*db, "q3"), "q3");
  service.Drain();
  const TicketId warm1 = service.Submit(Plan(*db, "q3"), "q3");
  const TicketId warm2 = service.Submit(Plan(*db, "q3"), "q3");
  service.Drain();

  const QueryTicket& cold_ticket = service.ticket(cold);
  ASSERT_NE(cold_ticket.session, nullptr);
  const TaggingDictionary& entry_dictionary = cold_ticket.plan->dictionary;
  EXPECT_GT(entry_dictionary.log_b_entries(), 0u);
  EXPECT_EQ(&cold_ticket.session->dictionary(), &entry_dictionary);
  // A compile of its own, outside the service, builds the same dictionary bytes.
  ProfilingSession compile_session;
  CodegenOptions options;
  options.parallel = true;
  CompileQuery(*db, Plan(*db, "q3"), &compile_session, "q3", options);
  const std::string compiled = DumpDictionary(compile_session.dictionary());
  EXPECT_EQ(DumpDictionary(entry_dictionary), compiled);

  // Each warm hit resolves against the very object the entry holds: nothing is copied.
  for (const TicketId id : {warm1, warm2}) {
    const QueryTicket& warm = service.ticket(id);
    EXPECT_TRUE(warm.cache_hit);
    EXPECT_EQ(warm.plan, cold_ticket.plan);
    ASSERT_NE(warm.session, nullptr);
    EXPECT_EQ(&warm.session->dictionary(), &entry_dictionary);
    EXPECT_EQ(DumpDictionary(warm.session->dictionary()), compiled);
  }
}

TEST(QueryServiceTest, TicketOutlivesItsEntrysEviction) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId id = service.Submit(Plan(*db, "q3"), "q3");
  service.Drain();
  const QueryTicket& ticket = service.ticket(id);
  ASSERT_NE(ticket.session, nullptr);
  const std::string dictionary = DumpDictionary(ticket.session->dictionary());
  const AttributionStats stats = ticket.session->Stats();

  // A schema change flushes the cache at the next admission: only the ticket (its plan and its
  // session) still references the entry.
  TableBuilder builder = db->CreateTableBuilder(TableSchema{"tiny", {{"a", ColumnType::kInt64}}});
  builder.BeginRow();
  builder.SetI64(0, 1);
  db->AddTable(builder.Finish());
  service.Submit(Plan(*db, "q6"), "q6");
  service.Drain();
  ASSERT_GE(service.plan_cache().stats().invalidations, 1u);
  ASSERT_EQ(service.plan_cache().Peek(ticket.fingerprint), nullptr);

  EXPECT_EQ(DumpDictionary(ticket.session->dictionary()), dictionary);
  // Post-processing the stream again against the ticket's dictionary reproduces its profile.
  const std::unique_ptr<const ProfilingSession> again = ProfilingSession::Resolved(
      ticket.session->config(),
      std::shared_ptr<const TaggingDictionary>(ticket.plan, &ticket.plan->dictionary),
      ticket.session->samples(), ticket.session->execution_cycles(),
      ticket.session->counters(), ticket.session->worker_count(), db->code_map());
  const AttributionStats again_stats = again->Stats();
  EXPECT_GT(stats.operator_samples, 0u);
  EXPECT_EQ(again_stats.total, stats.total);
  EXPECT_EQ(again_stats.operator_samples, stats.operator_samples);
  EXPECT_EQ(again_stats.via_tag, stats.via_tag);
  ASSERT_EQ(again->resolved().size(), ticket.session->resolved().size());
  for (size_t i = 0; i < again->resolved().size(); ++i) {
    EXPECT_EQ(again->resolved()[i].task, ticket.session->resolved()[i].task);
    EXPECT_EQ(again->resolved()[i].op, ticket.session->resolved()[i].op);
  }
}

TEST(QueryServiceTest, ConcurrentSessionsKeepStandaloneProfiles) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  // Alone: one session at a time (both run on slot 0).
  TicketId q1_alone = service.Submit(Plan(*db, "q1"), "q1");
  service.Drain();
  TicketId q6_alone = service.Submit(Plan(*db, "q6"), "q6");
  service.Drain();

  // Concurrent: both in flight, time-sharing the pool (q1 on slot 0, q6 on slot 1).
  TicketId q1_conc = service.Submit(Plan(*db, "q1"), "q1");
  TicketId q6_conc = service.Submit(Plan(*db, "q6"), "q6");
  service.Drain();

  const QueryTicket& a1 = service.ticket(q1_alone);
  const QueryTicket& c1 = service.ticket(q1_conc);
  const QueryTicket& a6 = service.ticket(q6_alone);
  const QueryTicket& c6 = service.ticket(q6_conc);
  ASSERT_EQ(c1.status, TicketStatus::kDone);
  ASSERT_EQ(c6.status, TicketStatus::kDone);

  // Results are unaffected by concurrency.
  EXPECT_EQ(a1.result.rows(), c1.result.rows());
  EXPECT_EQ(a6.result.rows(), c6.result.rows());

  // q1 runs on the same slot in both schedules: its stream is byte-identical — sharing the pool
  // with q6 left no trace whatsoever.
  ASSERT_FALSE(a1.session->samples().empty());
  EXPECT_EQ(DumpSamples(*a1.session), DumpSamples(*c1.session));
  EXPECT_EQ(a1.execute_cycles, c1.execute_cycles);

  // q6 runs on slot 1 when concurrent: every schedule-visible quantity (timestamps, IPs, worker
  // ids, sample counts) matches the standalone run; only raw pointer-valued registers shift by
  // the slot's base offset, which cache congruence makes behavior-neutral.
  ASSERT_EQ(a6.session->samples().size(), c6.session->samples().size());
  for (size_t i = 0; i < a6.session->samples().size(); ++i) {
    const Sample& alone = a6.session->samples()[i];
    const Sample& conc = c6.session->samples()[i];
    EXPECT_EQ(alone.tsc, conc.tsc) << "sample " << i;
    EXPECT_EQ(alone.ip, conc.ip) << "sample " << i;
    EXPECT_EQ(alone.worker_id, conc.worker_id) << "sample " << i;
    EXPECT_EQ(alone.regs[kTagRegister], conc.regs[kTagRegister]) << "sample " << i;
  }
  EXPECT_EQ(a6.execute_cycles, c6.execute_cycles);

  // Session ids demultiplex the streams.
  for (const Sample& sample : c1.session->samples()) {
    EXPECT_EQ(sample.session_id, q1_conc);
  }
  for (const Sample& sample : c6.session->samples()) {
    EXPECT_EQ(sample.session_id, q6_conc);
  }

  // Resolved attribution agrees exactly.
  const AttributionStats alone_stats = a6.session->Stats();
  const AttributionStats conc_stats = c6.session->Stats();
  EXPECT_EQ(alone_stats.operator_samples, conc_stats.operator_samples);
  EXPECT_EQ(alone_stats.kernel_samples, conc_stats.kernel_samples);
  EXPECT_EQ(alone_stats.unattributed, conc_stats.unattributed);
}

TEST(QueryServiceTest, BoundedQueueRejectsOverflow) {
  ServiceConfig config = TestConfig();
  config.max_active_sessions = 1;
  auto db = MakeDb(config);
  QueryService service(*db, config);

  // Sessions are admitted inside Drain, so kQueueDepth submissions fill the queue.
  std::vector<TicketId> queued;
  for (size_t i = 0; i < kQueueDepth; ++i) {
    queued.push_back(service.Submit(Plan(*db, "q6"), "q6"));
    EXPECT_EQ(service.ticket(queued.back()).status, TicketStatus::kQueued);
  }
  TicketId third = service.Submit(Plan(*db, "q6"), "q6");  // Queue full.
  EXPECT_EQ(service.ticket(third).status, TicketStatus::kRejected);

  service.Drain();
  for (TicketId id : queued) {
    EXPECT_EQ(service.ticket(id).status, TicketStatus::kDone);
  }
  EXPECT_EQ(service.ticket(third).status, TicketStatus::kRejected);

  // Rejected tickets never executed or compiled.
  EXPECT_EQ(service.ticket(third).result.row_count(), 0u);
  EXPECT_EQ(service.plan_cache().stats().misses, 1u);
}

TEST(QueryServiceTest, DeadlineAbortsMidRun) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  TicketId full = service.Submit(Plan(*db, "q1"), "q1");
  service.Drain();
  const uint64_t full_cycles = service.ticket(full).execute_cycles;
  ASSERT_GT(full_cycles, 0u);

  TicketId doomed = service.Submit(Plan(*db, "q1"), "q1", full_cycles / 2);
  service.Drain();
  const QueryTicket& timed_out = service.ticket(doomed);
  EXPECT_EQ(timed_out.status, TicketStatus::kTimedOut);
  EXPECT_GT(timed_out.execute_cycles, full_cycles / 2);
  EXPECT_LT(timed_out.execute_cycles, full_cycles);
  EXPECT_EQ(timed_out.result.row_count(), 0u);

  // The service keeps serving, and the abandoned slot is safely reusable.
  TicketId after = service.Submit(Plan(*db, "q1"), "q1");
  service.Drain();
  EXPECT_EQ(service.ticket(after).status, TicketStatus::kDone);
  EXPECT_EQ(service.ticket(after).result.rows(), service.ticket(full).result.rows());
}

TEST(QueryServiceTest, CodeBudgetEvictsLeastRecentlyUsed) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  // A wide aggregate compiles to tens of KiB of code, so a dozen literal variants (each its own
  // exactly keyed entry: tiering is off) fill kCodeBudgetBytes.
  std::string aggregates;
  for (int i = 2; i < 800; ++i) {
    aggregates += (aggregates.empty() ? "" : ", ") + std::string("sum(n_regionkey * ") +
                  std::to_string(i) + ")";
  }
  auto submit = [&](int variant) {
    const TicketId id = service.Submit(
        PlanSql(*db, "select " + aggregates + " from nation where n_nationkey < " +
                         std::to_string(variant)),
        "wide");
    service.Drain();
    return id;
  };
  const PlanCacheStats& stats = service.plan_cache().stats();
  submit(0);
  const uint64_t entry_bytes = stats.resident_code_bytes;
  const int capacity = static_cast<int>(kCodeBudgetBytes / entry_bytes);
  ASSERT_GE(capacity, 3);
  const TicketId first = submit(1);
  for (int variant = 2; variant < capacity; ++variant) {
    submit(variant);
  }
  ASSERT_EQ(stats.resident_code_bytes, entry_bytes * capacity);  // Full, nothing evicted yet.
  ASSERT_EQ(stats.evictions, 0u);

  submit(0);  // Hit: variant 0 becomes the most recently used entry.
  EXPECT_EQ(stats.hits, 1u);
  submit(capacity);  // Over budget: evicts the least recently used entry, variant 1.
  EXPECT_EQ(stats.evictions, 1u);
  const TicketId again = submit(1);  // Miss: recompiling variant 1 evicts variant 2.
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(capacity) + 2);
  EXPECT_EQ(stats.evictions, 2u);
  submit(0);  // Hit: variant 0 stayed resident.
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.resident_entries, static_cast<uint64_t>(capacity));
  EXPECT_LE(stats.resident_code_bytes, kCodeBudgetBytes);
  EXPECT_EQ(service.ticket(again).result.rows(), service.ticket(first).result.rows());
}

TEST(QueryServiceTest, CatalogChangeInvalidatesCache) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  TicketId before = service.Submit(Plan(*db, "q6"), "q6");
  service.Drain();

  TableBuilder builder = db->CreateTableBuilder(
      TableSchema{"tiny", {{"a", ColumnType::kInt64}}});
  builder.BeginRow();
  builder.SetI64(0, 1);
  db->AddTable(builder.Finish());

  TicketId after = service.Submit(Plan(*db, "q6"), "q6");
  service.Drain();

  // The schema change retired the fingerprint and flushed the cache.
  EXPECT_NE(service.ticket(before).fingerprint.structure,
            service.ticket(after).fingerprint.structure);
  EXPECT_FALSE(service.ticket(after).cache_hit);
  EXPECT_GE(service.plan_cache().stats().invalidations, 1u);
  EXPECT_EQ(service.plan_cache().stats().hits, 0u);
  EXPECT_EQ(service.ticket(after).result.rows(), service.ticket(before).result.rows());
}

TEST(QueryServiceTest, FleetProfileAggregatesByFingerprint) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);

  service.Submit(Plan(*db, "q1"), "q1");
  service.Drain();
  service.Submit(Plan(*db, "q1"), "q1");
  service.Drain();
  service.Submit(Plan(*db, "q6"), "q6");
  service.Drain();

  const ServiceProfile& fleet = service.fleet_profile();
  ASSERT_EQ(fleet.plans().size(), 2u);
  uint64_t q1_key = service.ticket(1).fingerprint.structure;
  const FleetPlanProfile& q1_plan = fleet.plans().at(q1_key);
  EXPECT_EQ(q1_plan.executions, 2u);
  EXPECT_EQ(q1_plan.cache_hits, 1u);
  EXPECT_EQ(q1_plan.cache_misses, 1u);
  EXPECT_GT(q1_plan.samples, 0u);
  EXPECT_GT(q1_plan.execute_cycles, 0u);
  EXPECT_FALSE(q1_plan.operators.empty());

  // Top-K is populated and ordered by samples.
  std::vector<FleetHotspot> hotspots = fleet.TopOperators(5);
  ASSERT_FALSE(hotspots.empty());
  for (size_t i = 1; i < hotspots.size(); ++i) {
    EXPECT_GE(hotspots[i - 1].samples, hotspots[i].samples);
  }
  EXPECT_GT(hotspots[0].share, 0.0);

  const std::string report = fleet.Render();
  EXPECT_NE(report.find("q1"), std::string::npos);
  EXPECT_NE(report.find("Hottest operators"), std::string::npos);
  EXPECT_NE(report.find("cache 1 hit"), std::string::npos);
}

TEST(QueryServiceTest, ServiceProfileRoundTripsThroughText) {
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  service.Submit(Plan(*db, "q1"), "q1");
  service.Submit(Plan(*db, "q6"), "q6");
  service.Drain();

  std::ostringstream first;
  WriteServiceProfile(service.fleet_profile(), service.windows(), first);
  std::istringstream in(first.str());
  WindowedProfile windows;
  ServiceProfile reread = ReadServiceProfile(in, &windows);
  std::ostringstream second;
  WriteServiceProfile(reread, windows, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(reread.plans().size(), service.fleet_profile().plans().size());
  EXPECT_EQ(reread.total_operator_samples(), service.fleet_profile().total_operator_samples());

  // Malformed inputs are rejected, not guessed at.
  std::istringstream bad_header("# not a profile\n");
  EXPECT_THROW(ReadServiceProfile(bad_header), Error);
  std::istringstream orphan_op("# dfp service profile v7\nop 0000000000000001 3 5 scan\n");
  EXPECT_THROW(ReadServiceProfile(orphan_op), Error);
  // A state file holds at most one reopt action per fingerprint; a second line is refused
  // instead of shadowing (or being shadowed by) the first.
  const std::string reopt = "reopt 0000000000000001 kept 10 20 30 400 1 0 q_spine\n";
  std::istringstream one_reopt("# dfp service profile v7\n" + reopt);
  GuardLog<ReoptPayload> reopts;
  ReadServiceProfile(one_reopt, nullptr, nullptr, nullptr, nullptr, nullptr, &reopts);
  ASSERT_EQ(reopts.actions().size(), 1u);
  EXPECT_EQ(reopts.actions().front().state, GuardState::kKept);
  std::istringstream duplicate_reopt("# dfp service profile v7\n" + reopt + reopt);
  GuardLog<ReoptPayload> duplicate_sink;
  EXPECT_THROW(ReadServiceProfile(duplicate_reopt, nullptr, nullptr, nullptr, nullptr, nullptr,
                                  &duplicate_sink),
               Error);
}

TEST(QueryServiceTest, WeightedFairSchedulingLetsHeavySessionsOvertake) {
  // Two identical queries submitted back to back. Under round-robin the first-submitted one
  // completes first; giving the second a weight of 4 hands it four work units per scheduler
  // round, so it overtakes — while the light session still advances every round (starvation
  // bound: one unit per round, so it finishes by the time the pool drains).
  ServiceConfig config = TestConfig();
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId light = service.Submit(Plan(*db, "q1"), "q1-light", 0, /*weight=*/1);
  const TicketId heavy = service.Submit(Plan(*db, "q1"), "q1-heavy", 0, /*weight=*/4);
  service.Drain();
  EXPECT_EQ(service.ticket(light).status, TicketStatus::kDone);
  EXPECT_EQ(service.ticket(heavy).status, TicketStatus::kDone);
  EXPECT_LT(service.ticket(heavy).completed_at_cycles,
            service.ticket(light).completed_at_cycles);
  // The light session is never starved past the drain: it finishes exactly when the last of
  // the submitted work does.
  EXPECT_EQ(service.ticket(light).completed_at_cycles, service.ServiceNowCycles());

  // Scheduling weight redistributes service time but must not distort the sessions' own
  // measured execution: each run's wall clock matches the round-robin control run.
  auto control_db = MakeDb(config);
  QueryService control(*control_db, config);
  const TicketId first = control.Submit(Plan(*control_db, "q1"), "q1-light");
  const TicketId second = control.Submit(Plan(*control_db, "q1"), "q1-heavy");
  control.Drain();
  EXPECT_LT(control.ticket(first).completed_at_cycles,
            control.ticket(second).completed_at_cycles);
  EXPECT_EQ(service.ticket(light).execute_cycles, control.ticket(first).execute_cycles);
  EXPECT_EQ(service.ticket(heavy).execute_cycles, control.ticket(second).execute_cycles);
  EXPECT_EQ(service.ticket(heavy).result.rows(), control.ticket(second).result.rows());
}

TEST(QueryServiceTest, RestartedServiceResumesRegressionDetection) {
  ServiceConfig config = TestConfig();
  config.state_path = ::testing::TempDir() + "dfp_service_state_test.profile";
  std::remove(config.state_path.c_str());

  const char* shifted_q6 =
      "select sum(l_extendedprice * l_discount) as revenue from lineitem "
      "where l_shipdate >= date '1992-01-01' and l_shipdate < date '1999-01-01' "
      "and l_discount between 0.00 and 0.10 and l_quantity < 100";

  uint64_t clock_at_shutdown = 0;
  uint64_t q6_fingerprint = 0;
  {
    // The database is rebuilt identically after the "restart": generation is deterministic, so
    // fingerprints and profiles line up across processes exactly as they would for one durable
    // database serving both.
    auto db = MakeDb(config);
    QueryService service(*db, config);
    for (int i = 0; i < 4; ++i) {
      const TicketId id = service.Submit(PlanSql(*db, FindQuery("q6").sql), "q6");
      service.Drain();
      q6_fingerprint = service.ticket(id).fingerprint.structure;
    }
    service.SnapshotBaseline();
    service.SaveState();  // Snapshot the baseline into the persisted state explicitly...
    clock_at_shutdown = service.ServiceNowCycles();
  }  // ...and the destructor persists again on shutdown (same content, same clock).

  // Restart: windows, baselines, and the service clock resume where the old process stopped.
  auto db = MakeDb(config);
  QueryService restarted(*db, config);
  EXPECT_EQ(restarted.ServiceNowCycles(), clock_at_shutdown);
  ASSERT_NE(restarted.baseline().Find(q6_fingerprint), nullptr);
  EXPECT_GT(restarted.windows().RollUp(q6_fingerprint).executions, 0u);

  // An identical post-restart workload stays quiet against the pre-restart baseline...
  for (int i = 0; i < 4; ++i) {
    restarted.Submit(PlanSql(*db, FindQuery("q6").sql), "q6");
    restarted.Drain();
  }
  EXPECT_TRUE(restarted.DetectRegressions().empty());

  // ...and the injected literal shift is flagged against that same pre-restart baseline,
  // without any post-restart snapshot.
  for (int i = 0; i < 6; ++i) {
    restarted.Submit(PlanSql(*db, shifted_q6), "q6");
    restarted.Drain();
  }
  const auto findings = restarted.DetectRegressions();
  bool flagged = false;
  for (const auto& finding : findings) {
    flagged |= finding.fingerprint == q6_fingerprint;
  }
  EXPECT_TRUE(flagged);
  std::remove(config.state_path.c_str());
}

// Deferred-patch ordering under back-to-back admits of the same structure with alternating
// literals (the schedule a trace replay drives hardest): a ticket whose admission would patch
// an entry that an in-flight session is still executing must wait at the queue head until that
// session drains, then patch and run — and every result must match the same query run alone.
TEST(QueryServiceTest, DeferredPatchDrainsBlockerThenPatches) {
  ServiceConfig config = TestConfig();
  config.tiering.enabled = true;

  auto variant = [](double lo, int quantity) {
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "select sum(l_extendedprice * l_discount) as revenue from lineitem "
                  "where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
                  "and l_discount between %.2f and %.2f and l_quantity < %d",
                  lo, lo + 0.02, quantity);
    return std::string(buffer);
  };

  // Solo reference results, each variant alone on a fresh service.
  auto solo = [&config, &variant](double lo, int quantity) {
    auto db = MakeDb(config);
    QueryService service(*db, config);
    const TicketId id = service.Submit(PlanSql(*db, variant(lo, quantity)), "q6");
    service.Drain();
    return service.ticket(id).result;
  };
  const Result solo_x = solo(0.05, 24);
  const Result solo_y = solo(0.02, 24);

  // Back-to-back batch: X, Y, X' — same structure, alternating literal bindings, submitted
  // before any admission so the deferral path (not a warm queue) decides the ordering.
  auto db = MakeDb(config);
  QueryService service(*db, config);
  const TicketId a = service.Submit(PlanSql(*db, variant(0.05, 24)), "q6");
  const TicketId b = service.Submit(PlanSql(*db, variant(0.02, 24)), "q6");
  const TicketId c = service.Submit(PlanSql(*db, variant(0.05, 24)), "q6");
  service.Drain();

  // a compiles cold; b needs the entry re-bound while a is executing it, so its admission
  // defers until a drains; c defers behind b the same way. Everyone completes.
  EXPECT_EQ(service.ticket(a).status, TicketStatus::kDone);
  EXPECT_EQ(service.ticket(b).status, TicketStatus::kDone);
  EXPECT_EQ(service.ticket(c).status, TicketStatus::kDone);
  EXPECT_FALSE(service.ticket(a).cache_hit);
  EXPECT_TRUE(service.ticket(b).cache_hit);
  EXPECT_TRUE(service.ticket(c).cache_hit);
  EXPECT_GT(service.ticket(b).patched_sites, 0u);
  EXPECT_GT(service.ticket(c).patched_sites, 0u);
  EXPECT_EQ(service.plan_cache().stats().patched_hits, 2u);

  // Drain-then-patch must be invisible to values: each ticket matches its solo run even though
  // the shared entry was re-bound twice mid-batch.
  std::string diff;
  EXPECT_TRUE(Result::Equivalent(service.ticket(a).result, solo_x, true, &diff)) << diff;
  EXPECT_TRUE(Result::Equivalent(service.ticket(b).result, solo_y, true, &diff)) << diff;
  EXPECT_TRUE(Result::Equivalent(service.ticket(c).result, solo_x, true, &diff)) << diff;

  // The deferral actually happened: with two free slots and three queued tickets, a lone
  // admission per sweep is only explained by the quiescence check holding b (then c) back.
  EXPECT_EQ(service.ticket(b).completed_at_cycles > service.ticket(a).completed_at_cycles, true);
  EXPECT_EQ(service.ticket(c).completed_at_cycles > service.ticket(b).completed_at_cycles, true);
}

TEST(QueryServiceTest, DrainIsDeterministic) {
  ServiceConfig config = TestConfig();
  auto run_once = [&config]() {
    auto db = MakeDb(config);
    QueryService service(*db, config);
    service.Submit(Plan(*db, "q1"), "q1");
    service.Submit(Plan(*db, "q6"), "q6");
    service.Submit(Plan(*db, "q3"), "q3");
    service.Drain();
    std::ostringstream out;
    WriteServiceProfile(service.fleet_profile(), service.windows(), out);
    out << service.ServiceNowCycles();
    for (TicketId id = 1; id <= service.ticket_count(); ++id) {
      out << "\n" << service.ticket(id).execute_cycles << " "
          << service.ticket(id).completed_at_cycles;
    }
    return out.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(QueryServiceTest, HashTableGrowthStaysInTheSessionsRegion) {
  const ServiceConfig config = TestConfig();
  DatabaseConfig db_config;
  db_config.extra_bytes = ServiceArenaBytes(config);
  Database db(db_config);
  TpchOptions options;
  options.scale = 0.0002;
  GenerateTpch(db, options);
  // The self-join yields more groups than the group-by's table was sized for, so the table
  // grows through kernel.ht_grow on every run.
  const std::string sql =
      "select a.l_orderkey, b.l_partkey, b.l_suppkey, count(*) from lineitem a, lineitem b "
      "where a.l_linenumber = b.l_linenumber group by a.l_orderkey, b.l_partkey, b.l_suppkey "
      "limit 2";
  QueryService service(db, config);
  std::vector<TicketId> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(service.Submit(PlanSql(db, sql), "self_join"));
    service.Drain();
  }

  // The last run's state block is the first allocation of slot 0's state region; some table it
  // points to holds more entries than it was created for.
  const VMem& mem = db.mem();
  VAddr state = 0;
  for (const MemRegion& region : mem.regions()) {
    if (region.name == "session0.state") {
      state = region.base;
    }
  }
  ASSERT_NE(state, 0u);
  const QueryTicket& last = service.ticket(runs.back());
  bool grew = false;
  for (const ExecStep& step : last.plan->query.exec_steps) {
    if (step.kind == ExecStep::Kind::kCreateHashTable) {
      const VAddr table = mem.Read<uint64_t>(state + step.state_offset0);
      grew |= HashTableView(mem, table).count() > step.ht_capacity;
    }
  }
  EXPECT_TRUE(grew);

  // Every growth chunk came from the session's own region, which each admission resets, so the
  // runs are identical and the database's shared region was never touched.
  // (The streams are compared as a predicate: gtest's line diff of two long streams that
  // differ takes memory quadratic in their length.)
  const QueryTicket& first = service.ticket(runs.front());
  ASSERT_EQ(first.status, TicketStatus::kDone);
  const std::string first_samples = DumpSamples(*first.session);
  for (TicketId id : runs) {
    const QueryTicket& run = service.ticket(id);
    ASSERT_EQ(run.status, TicketStatus::kDone);
    EXPECT_EQ(run.execute_cycles, first.execute_cycles) << "ticket " << id;
    EXPECT_TRUE(DumpSamples(*run.session) == first_samples) << "ticket " << id;
  }
  EXPECT_EQ(mem.region(db.hashtables_region()).used, 0u);
}

}  // namespace
}  // namespace dfp
