// WindowedProfile: ring bounds, quantiles, roll-up, the operator-share rule, deterministic JSON,
// and the service-profile text round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "src/continuous/regression.h"
#include "src/continuous/window.h"
#include "src/critpath/slack.h"
#include "src/reopt/cardstore.h"
#include "src/reopt/controller.h"
#include "src/service/service_profile.h"

namespace dfp {
namespace {

OperatorProfile MakeProfile(std::vector<std::tuple<OperatorId, std::string, uint64_t>> ops) {
  OperatorProfile profile;
  for (auto& [op, label, samples] : ops) {
    OperatorCost cost;
    cost.op = op;
    cost.label = std::move(label);
    cost.samples = samples;
    profile.operator_samples += samples;
    profile.operators.push_back(std::move(cost));
  }
  return profile;
}

PmuCounters MakeCounters(uint64_t loads, uint64_t l3, uint64_t remote) {
  PmuCounters counters;
  counters.values[static_cast<int>(PmuEvent::kLoads)] = loads;
  counters.values[static_cast<int>(PmuEvent::kL3Miss)] = l3;
  counters.values[static_cast<int>(PmuEvent::kRemoteDram)] = remote;
  return counters;
}

WindowConfig SmallConfig() {
  WindowConfig config;
  config.width_cycles = 1000;
  return config;
}

TEST(WindowedProfile, ExecutionsFoldIntoTheWindowOfTheirCompletionTime) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile profile = MakeProfile({{1, "Scan", 10}, {2, "HashJoin", 30}});
  windows.Record(0xabc, "q", 100, profile, MakeCounters(50, 5, 1), 4000, 20, 311);
  windows.Record(0xabc, "q", 900, profile, MakeCounters(50, 5, 1), 6000, 20, 311);

  const ProfileWindow* window = windows.LatestWindow(0xabc);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->index, 0u);
  EXPECT_EQ(window->executions, 2u);
  EXPECT_EQ(window->samples, 80u);
  EXPECT_EQ(window->execute_cycles, 10000u);
  EXPECT_EQ(window->rows, 40u);
  EXPECT_EQ(window->loads, 100u);
  EXPECT_EQ(window->l3_misses, 10u);
  EXPECT_EQ(window->remote_dram, 2u);
  EXPECT_EQ(window->operators.at(2).samples, 60u);
  EXPECT_EQ(window->operators.at(2).sample_cycles, 60u * 311u);

  // A later completion opens a new window; the old one stays retained.
  windows.Record(0xabc, "q", 1500, profile, MakeCounters(50, 5, 1), 5000, 20, 311);
  EXPECT_EQ(windows.LatestWindow(0xabc)->index, 1u);
  EXPECT_EQ(windows.plans().at(0xabc).windows.size(), 2u);
}

TEST(WindowedProfile, RingEvictsOldestBeyondConfiguredDepth) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile profile = MakeProfile({{1, "Scan", 1}});
  for (uint64_t w = 0; w < kRingWindows + 2; ++w) {
    windows.Record(0x1, "q", w * 1000 + 10, profile, PmuCounters(), 100, 1, 100);
  }
  const auto& series = windows.plans().at(0x1);
  ASSERT_EQ(series.windows.size(), kRingWindows);
  EXPECT_EQ(series.windows.front().index, 2u);
  EXPECT_EQ(series.windows.back().index, kRingWindows + 1);
}

TEST(WindowedProfile, LatencyQuantilesAreNearestRank) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile profile = MakeProfile({{1, "Scan", 1}});
  // 20 executions with latencies 100, 200, ..., 2000 — all in window 0.
  for (uint64_t i = 1; i <= 20; ++i) {
    windows.Record(0x1, "q", 10, profile, PmuCounters(), i * 100, 1, 100);
  }
  const ProfileWindow* window = windows.LatestWindow(0x1);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(window->latency_p50, 1000u);
  EXPECT_EQ(window->latency_p95, 1900u);
  EXPECT_EQ(window->latency_max, 2000u);
}

TEST(WindowedProfile, RollUpAggregatesRetainedWindows) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile scan_heavy = MakeProfile({{1, "Scan", 90}, {2, "Agg", 10}});
  OperatorProfile agg_heavy = MakeProfile({{1, "Scan", 10}, {2, "Agg", 90}});
  windows.Record(0x7, "q", 10, scan_heavy, MakeCounters(10, 1, 0), 1000, 10, 100);
  windows.Record(0x7, "q", 1010, agg_heavy, MakeCounters(10, 1, 4), 3000, 10, 100);

  WindowRollup rollup = windows.RollUp(0x7);
  EXPECT_EQ(rollup.window_count, 2u);
  EXPECT_EQ(rollup.executions, 2u);
  EXPECT_EQ(rollup.samples, 200u);
  EXPECT_EQ(rollup.execute_cycles, 4000u);
  EXPECT_DOUBLE_EQ(OperatorShare(rollup.operators, rollup.samples, 1), 0.5);
  EXPECT_DOUBLE_EQ(OperatorShare(rollup.operators, rollup.samples, 2), 0.5);
  EXPECT_DOUBLE_EQ(rollup.CyclesPerRow(), 200.0);
  EXPECT_DOUBLE_EQ(rollup.RemoteDramShare(), 0.2);
  EXPECT_EQ(rollup.latency_max, 3000u);

  // Unknown fingerprints roll up empty instead of throwing.
  EXPECT_EQ(windows.RollUp(0xdead).executions, 0u);
}

TEST(WindowedProfile, OperatorShareIsZeroWithoutSamplesOrOperator) {
  WindowedProfile windows(SmallConfig());
  windows.Record(0x7, "q", 10, MakeProfile({{1, "Scan", 30}, {2, "Agg", 10}}),
                 MakeCounters(10, 1, 0), 1000, 10, 100);
  const WindowRollup rollup = windows.RollUp(0x7);
  EXPECT_DOUBLE_EQ(OperatorShare(rollup.operators, rollup.samples, 1), 0.75);
  EXPECT_EQ(OperatorShare(rollup.operators, rollup.samples, 3), 0);  // Unknown operator.
  EXPECT_EQ(OperatorShare(rollup.operators, 0, 1), 0);               // No samples, no division.
  // Regression baselines split their snapshot mix by the same rule.
  const std::optional<PlanBaseline> baseline = SnapshotPlanBaseline(windows, 0x7);
  ASSERT_TRUE(baseline.has_value());
  EXPECT_DOUBLE_EQ(OperatorShare(baseline->operators, baseline->samples, 2), 0.25);
}

TEST(WindowedProfile, JsonExportIsDeterministic) {
  auto build = [] {
    WindowedProfile windows(SmallConfig());
    OperatorProfile profile = MakeProfile({{1, "Scan", 10}, {2, "HashJoin", 5}});
    windows.Record(0xfeed, "q3", 10, profile, MakeCounters(7, 3, 1), 1234, 5, 311);
    windows.Record(0xfeed, "q3", 1200, profile, MakeCounters(7, 3, 1), 4321, 5, 311);
    std::ostringstream out;
    windows.WriteJson(out);
    return out.str();
  };
  const std::string a = build();
  const std::string b = build();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"fingerprint\":\"000000000000feed\""), std::string::npos);
  EXPECT_NE(a.find("\"latency_max\":4321"), std::string::npos);
  // Integers only: no scientific notation or decimal points from double formatting.
  EXPECT_EQ(a.find('.'), std::string::npos);
}

TEST(ServiceProfileFormat, WindowsRoundTripThroughTextFormat) {
  ServiceProfile fleet;
  FleetPlanProfile plan;
  plan.fingerprint = 0x42;
  plan.name = "q6";
  plan.executions = 3;
  plan.execute_cycles = 999;
  fleet.AddLoadedPlan(plan);
  FleetOperatorCost cost;
  cost.op = 1;
  cost.samples = 17;
  cost.label = "TableScan lineitem";
  fleet.AddLoadedOperator(0x42, cost);

  WindowedProfile windows(SmallConfig());
  OperatorProfile profile =
      MakeProfile({{1, "TableScan lineitem", 12}, {2, "HashAgg", 5}});
  windows.Record(0x42, "q6", 10, profile, MakeCounters(9, 2, 1), 333, 7, 311);
  windows.Record(0x42, "q6", 1500, profile, MakeCounters(9, 2, 1), 444, 7, 311);

  std::ostringstream out;
  WriteServiceProfile(fleet, windows, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("windowcfg 1000\n"), std::string::npos);

  std::istringstream in(text);
  WindowedProfile loaded;
  ServiceProfile fleet2 = ReadServiceProfile(in, &loaded);
  EXPECT_EQ(fleet2.plans().at(0x42).executions, 3u);
  EXPECT_EQ(fleet2.plans().at(0x42).samples, 17u);
  EXPECT_EQ(loaded.config().width_cycles, 1000u);

  // Loaded windows render and re-serialize identically to the originals.
  EXPECT_EQ(loaded.Render(), windows.Render());
  std::ostringstream rewritten;
  WriteServiceProfile(fleet2, loaded, rewritten);
  EXPECT_EQ(rewritten.str(), text);
}


TEST(WindowedProfile, TierCountsFoldIntoWindowsAndRollups) {
  WindowedProfile windows(SmallConfig());
  OperatorProfile profile = MakeProfile({{1, "Scan", 10}});
  windows.Record(0xabc, "q", 100, profile, MakeCounters(5, 1, 0), 4000, 20, 311,
                 PlanTier::kBaseline);
  windows.Record(0xabc, "q", 200, profile, MakeCounters(5, 1, 0), 4000, 20, 311,
                 PlanTier::kOptimized);
  windows.Record(0xabc, "q", 1500, profile, MakeCounters(5, 1, 0), 4000, 20, 311,
                 PlanTier::kBaseline);

  const auto& ring = windows.plans().at(0xabc).windows;
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].executions, 2u);
  EXPECT_EQ(ring[0].baseline_executions, 1u);
  EXPECT_EQ(ring[0].baseline_samples, 10u);
  EXPECT_EQ(ring[1].baseline_executions, 1u);

  const WindowRollup rollup = windows.RollUp(0xabc);
  EXPECT_EQ(rollup.executions, 3u);
  EXPECT_EQ(rollup.baseline_executions, 2u);
  EXPECT_EQ(rollup.baseline_samples, 20u);

  // Tier counts surface in the rendering and the JSON export.
  EXPECT_NE(windows.Render().find("baseline 1/2 exec 10 samples"), std::string::npos);
  std::ostringstream json;
  windows.WriteJson(json);
  EXPECT_NE(json.str().find("\"baseline_executions\":1"), std::string::npos);
}

TEST(WindowedProfile, TierFreeRenderingIsUnchanged) {
  // Windows recorded without a tier argument must render without any baseline annotation —
  // the historical output, byte for byte.
  WindowedProfile windows(SmallConfig());
  OperatorProfile profile = MakeProfile({{1, "Scan", 10}});
  windows.Record(0xabc, "q", 100, profile, MakeCounters(5, 1, 0), 4000, 20, 311);
  EXPECT_EQ(windows.Render().find("baseline"), std::string::npos);
}

TEST(ServiceProfileFormat, StateRoundTripsWithClockTiersAndBaselines) {
  ServiceProfile fleet;
  FleetPlanProfile plan;
  plan.fingerprint = 0x42;
  plan.name = "q6";
  plan.executions = 2;
  plan.execute_cycles = 777;
  fleet.AddLoadedPlan(plan);

  WindowedProfile windows(SmallConfig());
  OperatorProfile profile = MakeProfile({{1, "TableScan lineitem", 30}});
  windows.Record(0x42, "q6", 10, profile, MakeCounters(9, 2, 1), 333, 7, 311,
                 PlanTier::kBaseline);
  windows.Record(0x42, "q6", 1500, profile, MakeCounters(9, 2, 1), 444, 7, 311);
  BaselineStore baselines;
  baselines.Snapshot(windows);

  std::ostringstream out;
  WriteServiceState(fleet, windows, baselines, /*service_clock_cycles=*/123456, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("clock 123456"), std::string::npos);
  EXPECT_NE(text.find("baseline 0000000000000042"), std::string::npos);
  EXPECT_NE(text.find("bop 0000000000000042"), std::string::npos);

  std::istringstream in(text);
  WindowedProfile loaded_windows;
  BaselineStore loaded_baselines;
  uint64_t clock = 0;
  ServiceProfile loaded_fleet =
      ReadServiceProfile(in, &loaded_windows, &loaded_baselines, &clock);
  EXPECT_EQ(clock, 123456u);
  ASSERT_NE(loaded_baselines.Find(0x42), nullptr);
  EXPECT_EQ(loaded_baselines.Find(0x42)->watermark, baselines.Find(0x42)->watermark);
  EXPECT_EQ(loaded_windows.RollUp(0x42).baseline_executions, 1u);

  std::ostringstream rewritten;
  WriteServiceState(loaded_fleet, loaded_windows, loaded_baselines, clock, rewritten);
  EXPECT_EQ(rewritten.str(), text);
}

TEST(ServiceProfileFormat, OrphanBaselineOperatorIsMalformed) {
  std::istringstream orphan_bop(
      "# dfp service profile v7\nclock 5\nbop 0000000000000001 1 2 3 scan\n");
  BaselineStore sink;
  EXPECT_THROW(ReadServiceProfile(orphan_bop, nullptr, &sink), Error);
}

TEST(ServiceProfileFormat, WopWithoutWindowIsMalformed) {
  const std::string bad =
      "# dfp service profile v7\n"
      "windowcfg 1000\n"
      "plan 0000000000000042 1 0 1 10 10 q\n"
      "wop 0000000000000042 0 1 5 500 Scan\n";
  std::istringstream in(bad);
  WindowedProfile windows;
  EXPECT_THROW(ReadServiceProfile(in, &windows), Error);
}

TEST(ServiceProfileFormat, MalformedFingerprintKeysAreRejected) {
  // Keys are exactly 16 lowercase hex digits; anything else is a dfp::Error, never a partial
  // parse of a valid prefix.
  for (const char* key : {"zzzzzzzzzzzzzzzz", "12zzzzzzzzzzzzzz", "000000000000042",
                          "00000000000000042", "000000000000004A"}) {
    std::istringstream in(std::string("# dfp service profile v7\nplan ") + key +
                          " 1 0 1 10 10 q\n");
    EXPECT_THROW(ReadServiceProfile(in), Error) << key;
  }
}

// A state file with every line kind, in the writer's form.
const char* const kStateText =
    "# dfp service profile v7\n"
    "windowcfg 1000\n"
    "plan 0000000000000042 2 1 1 10 20 q6\n"
    "op 0000000000000042 1 5 scan\n"
    "crit 0000000000000042 7 60 compute-bound\n"
    "window 0000000000000042 0 1 5 20 3 9 2 1 1 0 20 20 20 0 0\n"
    "wop 0000000000000042 0 1 5 500 scan\n"
    "clock 1500\n"
    "baseline 0000000000000042 5 0 6.5 0.25 q6\n"
    "bop 0000000000000042 1 5 500 scan\n"
    "slackgen 3\n"
    "slack 0000000000000042 1 3 100 q6\n"
    "slackstep 0000000000000042 0 1 64 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16\n"
    "cardgen 2\n"
    "cardplan 0000000000000042 1 2 q6\n"
    "card 0000000000000042 1 10 12 1 2\n"
    "reopt 0000000000000042 kept 10 20 30 400 1 0 q6\n";

// Reads `text` into every sink and writes it back as a state file.
std::string RoundTripState(const std::string& text) {
  std::istringstream in(text);
  WindowedProfile windows;
  BaselineStore baselines;
  uint64_t clock = 0;
  SlackStore slack;
  CardStore cards;
  GuardLog<ReoptPayload> reopts;
  const ServiceProfile profile =
      ReadServiceProfile(in, &windows, &baselines, &clock, &slack, &cards, &reopts);
  std::ostringstream out;
  WriteServiceState(profile, windows, baselines, clock, out, &slack, &cards, &reopts);
  return out.str();
}

TEST(ServiceProfileFormat, RefusesSignedOverflowingAndTrailingJunkFields) {
  ASSERT_EQ(RoundTripState(kStateText), kStateText);
  // Per row one fault: a sign on an unsigned field, a value one past its field's width,
  // trailing bytes on a field, or a token after a fixed-field line's last field.
  const std::string text = kStateText;
  const size_t line = std::count(text.begin(), text.end(), '\n') + 1;
  for (const char* bad : {"plan 0000000000000043 -5 0 1 10 10 q",
                          "plan 0000000000000043 +5 0 1 10 10 q",
                          "plan 0000000000000043 18446744073709551616 0 1 10 10 q",
                          "plan 00000000000000430 1 0 1 10 10 q",
                          "op 0000000000000042 4294967296 5 scan",
                          "op 0000000000000042 3 5x scan",
                          "crit 0000000000000042 7 60 compute-bound 1",
                          "clock -1",
                          "clock 12x",
                          "windowcfg 1000 7",
                          "windowcfg 0",
                          "window 0000000000000042 1 1 5 20 3 9 2 1 1 0 20 20 20 0 0 0",
                          "wop 0000000000000042 0 -1 5 500 scan",
                          "baseline 0000000000000043 5 0 +6.5 0.25 q6",
                          "baseline 0000000000000043 5 0 6.5x 0.25 q6",
                          "bop 0000000000000042 2 5 18446744073709551616 scan",
                          "slackstep 0000000000000042 0 4294967296 64 1 2 3 4 5 6 7 8 9 10 11 "
                          "12 13 14 15 16",
                          "slackstep 0000000000000042 1 1 64 1 2 3 4 5 6 7 8 9 10 11 12 13 14 "
                          "15 16 17",
                          "cardgen 2 0",
                          "card 0000000000000042 2 10 12 1 2 3",
                          "reopt 0000000000000043 kept 10 20 30 400 2 0 q6",
                          "reopt 0000000000000043 bogus 10 20 30 400 1 0 q6"}) {
    try {
      RoundTripState(text + bad + "\n");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "malformed service profile line " +
                                           std::to_string(line) + ": '" + bad + "'");
    }
  }
}

TEST(ServiceProfileFormat, RefusesASecondLineForALoadedKey) {
  // The writer emits each key once. A repeat would count an operator's samples twice (op,
  // wop), drop the operator lines already loaded for a plan (plan, baseline), or store a slack
  // step twice; every keyed line is refused when its key is loaded already, as reopt is.
  const std::string text = kStateText;
  for (const char* kind : {"plan", "op", "crit", "wop", "baseline", "bop", "slack",
                           "slackstep", "cardplan", "card", "reopt"}) {
    const size_t start = text.find(std::string("\n") + kind + " ") + 1;
    const std::string line = text.substr(start, text.find('\n', start) + 1 - start);
    try {
      RoundTripState(text.substr(0, start) + line + text.substr(start));
      ADD_FAILURE() << "accepted a second " << kind << " line";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), std::string("service profile has a second ") + kind +
                                           " line for plan 0000000000000042");
    }
  }
}

TEST(ServiceProfileFormat, OneHeaderWrittenAndEveryOtherRefused) {
  // Both writers emit v7 whatever the profile holds...
  ServiceProfile empty;
  WindowedProfile windows;
  std::ostringstream profile_out;
  WriteServiceProfile(empty, windows, profile_out);
  EXPECT_EQ(profile_out.str().rfind("# dfp service profile v7\n", 0), 0u);
  std::ostringstream state_out;
  WriteServiceState(empty, windows, BaselineStore(), 0, state_out);
  EXPECT_EQ(state_out.str().rfind("# dfp service profile v7\n", 0), 0u);

  // ...and the reader refuses every other version, older or newer, with one message.
  for (int version = 1; version <= 8; ++version) {
    if (version == 7) {
      continue;
    }
    std::istringstream in("# dfp service profile v" + std::to_string(version) +
                          "\nplan 0000000000000042 1 0 1 10 10 q\n");
    try {
      ReadServiceProfile(in);
      ADD_FAILURE() << "v" << version << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported file header"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dfp
