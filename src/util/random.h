// Deterministic pseudo-random generation used by the synthetic data generator and property tests.
#ifndef DFP_SRC_UTIL_RANDOM_H_
#define DFP_SRC_UTIL_RANDOM_H_

#include <cstdint>
#include <string>

#include "src/util/check.h"

namespace dfp {

// xorshift128+ generator: fast, deterministic, and identical on every platform, so that the
// synthetic TPC-H-style dataset is reproducible bit-for-bit across runs.
class Random {
 public:
  explicit Random(uint64_t seed) {
    // SplitMix64 seeding to avoid poor low-entropy states.
    state0_ = SplitMix(seed);
    state1_ = SplitMix(state0_);
  }

  uint64_t Next() {
    uint64_t x = state0_;
    const uint64_t y = state1_;
    state0_ = y;
    x ^= x << 23;
    state1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return state1_ + y;
  }

  // Uniform integer in [lo, hi], inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    DFP_CHECK(lo <= hi);
    uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % range);
  }

  // Uniform double in [0, 1).
  double UniformDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

  // True with probability `p`.
  bool Chance(double p) { return UniformDouble() < p; }

 private:
  static uint64_t SplitMix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  uint64_t state0_;
  uint64_t state1_;
};

}  // namespace dfp

#endif  // DFP_SRC_UTIL_RANDOM_H_
