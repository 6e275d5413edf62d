// Sample-stream shard attribution (D tokens) and cross-node locality (X tokens) round-trip
// byte-stably, only non-default values are ever written, and malformed tokens are rejected.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/pmu/sample.h"
#include "src/profiling/serialize.h"
#include "src/util/check.h"

namespace dfp {
namespace {

std::string Write(const std::vector<Sample>& samples) {
  std::ostringstream out;
  WriteSamples(samples, out);
  return out.str();
}

TEST(ShardStream, RoundTripPreservesShardAndCrossNode) {
  std::vector<Sample> samples(3);
  samples[0].tsc = 10;
  samples[0].ip = 0x1000;
  samples[0].shard_id = 2;
  samples[1].tsc = 20;
  samples[1].ip = 0x1010;
  samples[1].addr = 0x9000;
  samples[1].worker_id = 1;
  samples[1].shard_id = 3;
  samples[1].cross_node = true;
  samples[1].mem_node = 1;  // Owning machine node, recorded through the X token.
  samples[2].tsc = 30;
  samples[2].ip = 0x1020;  // Shard-less coordinator sample in the same stream.

  const std::string text = Write(samples);
  EXPECT_NE(text.find(" D 2"), std::string::npos);
  EXPECT_NE(text.find(" X 1"), std::string::npos);

  std::istringstream in(text);
  const std::vector<Sample> read = ReadSamples(in);
  ASSERT_EQ(read.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(read[i].tsc, samples[i].tsc);
    EXPECT_EQ(read[i].shard_id, samples[i].shard_id);
    EXPECT_EQ(read[i].cross_node, samples[i].cross_node);
    EXPECT_EQ(read[i].mem_node, samples[i].mem_node);
    EXPECT_EQ(read[i].worker_id, samples[i].worker_id);
  }

  // Byte-stable: writing what was read reproduces the stream exactly.
  EXPECT_EQ(Write(read), text);
}

TEST(ShardStream, ShardFreeStreamsCarryNoShardTokens) {
  // Worker ids and NUMA locality have tokens of their own; neither ever brings in D or X.
  std::vector<Sample> plain(1);
  plain[0].tsc = 5;
  plain[0].ip = 0x2000;
  EXPECT_EQ(Write(plain), "# dfp samples v8\nsample 5 8192 0\n");

  plain[0].worker_id = 2;
  EXPECT_EQ(Write(plain), "# dfp samples v8\nsample 5 8192 0 W 2\n");

  plain[0].mem_node = 0;
  plain[0].numa_remote = true;
  const std::string local = Write(plain);
  EXPECT_NE(local.find(" N 0 1"), std::string::npos);
  EXPECT_EQ(local.find(" D "), std::string::npos);
  EXPECT_EQ(local.find(" X "), std::string::npos);
}

TEST(ShardStream, ShardFreeLinesReadAsUnsharded) {
  const char* streams[] = {
      "# dfp samples v8\nsample 1 4096 0\n",
      "# dfp samples v8\nsample 1 4096 0 W 3\n",
      "# dfp samples v8\nsample 1 4096 36864 W 1 N 0 1 T\n",
  };
  for (const char* text : streams) {
    std::istringstream in(text);
    const std::vector<Sample> read = ReadSamples(in);
    ASSERT_EQ(read.size(), 1u) << text;
    EXPECT_EQ(read[0].shard_id, 0u);
    EXPECT_FALSE(read[0].cross_node);
  }
}

TEST(ShardStream, RejectsMalformedShardTokens) {
  // D 0 would be a shard token naming "no shard"; machine nodes are one byte. Missing payloads
  // and out-of-range values are malformed, never clamped or dropped.
  for (const char* line : {"sample 1 4096 0 D 0", "sample 1 4096 0 D", "sample 1 4096 0 D x",
                           "sample 1 4096 4096 X 300", "sample 1 4096 4096 X"}) {
    std::istringstream in(std::string("# dfp samples v8\n") + line + "\n");
    EXPECT_THROW(ReadSamples(in), Error) << line;
  }
}

TEST(ShardStream, ZeroShardIdNeverSerialized) {
  // shard_id 0 means "no shard" — it must not emit a D token (the reader rejects D 0, and
  // unsharded streams stay free of shard tokens).
  std::vector<Sample> samples(1);
  samples[0].tsc = 1;
  samples[0].ip = 0x3000;
  samples[0].shard_id = 0;
  EXPECT_EQ(Write(samples).find(" D "), std::string::npos);
}

}  // namespace
}  // namespace dfp
