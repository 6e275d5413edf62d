// Every knob-table row at its extremes. A trace whose `knobs` line carries 0 or the type's
// maximum in one row (and, for a double row, NaN, +infinity or -1) is either refused by
// ReadTrace with a dfp::Error, or replays a two-query recording to completion — the replay
// may refuse the config with a dfp::Error too. A negative or non-finite double must be
// refused at read. Anything else (an abort, another exception, a float-to-integer overflow
// under the sanitizers) fails the test.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "src/replay/trace.h"
#include "src/tpch/datagen.h"
#include "src/tpch/queries.h"
#include "src/util/check.h"

namespace dfp {
namespace {

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.parallel.workers = 2;
  config.max_active_sessions = 1;
  config.session_hashtables_bytes = 8 * kCacheCongruenceBytes;
  config.session_state_bytes = kCacheCongruenceBytes;
  config.session_output_bytes = 4 * kCacheCongruenceBytes;
  config.profiling.period = 997;
  config.tiering.enabled = true;
  return config;
}

// Every case gets a fresh, identically generated database: a replay carves session regions
// and compiles code into its database, so cases must not share one.
std::unique_ptr<Database> MakeDb() {
  DatabaseConfig db_config;
  db_config.columns_bytes = 16ull << 20;
  db_config.strings_bytes = 4ull << 20;
  db_config.hashtables_bytes = 16ull << 20;
  db_config.output_bytes = 8ull << 20;
  db_config.extra_bytes = ServiceArenaBytes(SmallConfig());
  auto db = std::make_unique<Database>(db_config);
  TpchOptions options;
  options.scale = 0.001;
  GenerateTpch(*db, options);
  return db;
}

WorkloadTrace RecordTwoQueries() {
  auto db = MakeDb();
  QueryService service(*db, SmallConfig());
  TraceRecorder recorder;
  service.AttachRecorder(recorder);
  service.Submit(BuildQueryPlan(*db, FindQuery("q6")), "q6");
  service.Submit(BuildQueryPlan(*db, FindQuery("q1")), "q1");
  service.Drain();
  return recorder.Finish(service);
}

// The extreme values of one row's type: 0 and the maximum, plus NaN, +inf and -1 for doubles.
template <typename T>
std::vector<T> Extremes() {
  if constexpr (std::is_enum_v<T>) {
    return {T{}, static_cast<T>(std::numeric_limits<std::underlying_type_t<T>>::max())};
  } else if constexpr (std::is_floating_point_v<T>) {
    return {0, std::numeric_limits<T>::max(), std::numeric_limits<T>::quiet_NaN(),
            std::numeric_limits<T>::infinity(), -1};
  } else {
    return {0, std::numeric_limits<T>::max()};
  }
}

TEST(KnobFuzzTest, ExtremeKnobsAreRefusedOrReplay) {
  const WorkloadTrace recorded = RecordTwoQueries();
  ASSERT_EQ(recorded.queries.size(), 2u);
  size_t cases = 0;
  size_t replayed = 0;
  ForEachKnob([&](const char* name, auto field) {
    using T = std::decay_t<decltype(field(recorded.knobs))>;
    for (const T value : Extremes<T>()) {
      WorkloadTrace edited = recorded;
      field(edited.knobs) = value;
      std::istringstream in(EncodeTraceText(edited));
      ++cases;
      WorkloadTrace parsed;
      try {
        parsed = ReadTrace(in);
      } catch (const Error&) {
        continue;  // Refused at read.
      }
      if constexpr (std::is_floating_point_v<T>) {
        EXPECT_TRUE(std::isfinite(value) && value >= 0) << name << "=" << value << " accepted";
      }
      auto db = MakeDb();
      try {
        const ReplayRun run = ReplayTrace(*db, parsed);
        EXPECT_EQ(run.trace.queries.size(), 2u) << name;
        ++replayed;
      } catch (const Error&) {
        // Refused by the replay, e.g. session slots the database cannot host.
      }
    }
  });
  EXPECT_GT(cases, 0u);
  EXPECT_GT(replayed, 0u);
}

}  // namespace
}  // namespace dfp
