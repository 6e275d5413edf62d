// Bimodal (2-bit saturating counter) branch predictor.
//
// Misprediction penalties are what make the paper's Figure 11 observation reproducible: a probe
// pipeline whose match/no-match outcome is clustered in time is cheap, while a mixed outcome
// stream pays steady penalties.
#ifndef DFP_SRC_VCPU_BRANCH_PREDICTOR_H_
#define DFP_SRC_VCPU_BRANCH_PREDICTOR_H_

#include <cstdint>
#include <vector>

namespace dfp {

class BranchPredictor {
 public:
  static constexpr uint32_t kTableSize = 16384;  // Entries; must be a power of two.
  static constexpr uint32_t kMissPenalty = 15;   // Cycles per misprediction.

  BranchPredictor() : counters_(kTableSize, 1) {}

  // Records the outcome of the conditional branch at `ip`; returns true if it was mispredicted.
  bool Branch(uint64_t ip, bool taken) {
    uint8_t& counter = counters_[static_cast<size_t>((ip ^ (ip >> 7)) & (kTableSize - 1))];
    bool predicted_taken = counter >= 2;
    if (taken && counter < 3) {
      ++counter;
    } else if (!taken && counter > 0) {
      --counter;
    }
    return predicted_taken != taken;
  }

 private:
  std::vector<uint8_t> counters_;
};

}  // namespace dfp

#endif  // DFP_SRC_VCPU_BRANCH_PREDICTOR_H_
