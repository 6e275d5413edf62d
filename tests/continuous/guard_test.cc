// The guarded-action lifecycle (src/continuous/guard.h), run with every payload that uses it —
// placement repair and re-optimization: one action per fingerprint, the in-effect / kept /
// reverted counts, the state-name round trip the state file relies on, and the shared
// timeline layout with each payload's own detail.
#include <gtest/gtest.h>

#include <string>

#include "src/continuous/guard.h"
#include "src/reopt/controller.h"
#include "src/service/placement_repair.h"

namespace dfp {
namespace {

RepairPayload SamplePayload(RepairPayload payload) {
  payload.table = "lineitem";
  payload.pipeline = 2;
  payload.placement = {{kPlacementDenom / 2, 1}, {kPlacementDenom, 0}};
  return payload;
}
std::string SampleDetail(const RepairPayload&) { return "pipeline 2 table lineitem 2 slice(s)"; }

ReoptPayload SamplePayload(ReoptPayload payload) {
  payload.description = "reorder 1,0";
  payload.divergence_pct = 400;
  return payload;
}
std::string SampleDetail(const ReoptPayload&) { return "divergence=400% reorder 1,0"; }

template <typename Payload>
class GuardLifecycle : public ::testing::Test {};

using Payloads = ::testing::Types<RepairPayload, ReoptPayload>;
TYPED_TEST_SUITE(GuardLifecycle, Payloads);

TYPED_TEST(GuardLifecycle, LogLifecycleAndTimeline) {
  const std::string header = std::string("=== ") + TypeParam::kName + " timeline ===\n";
  GuardLog<TypeParam> log;
  EXPECT_EQ(RenderGuardTimeline(log), header + "(no " + TypeParam::kNone + ")\n");

  const GuardedAction<TypeParam> action{.fingerprint = 0x11,
                                        .plan_name = "q_join",
                                        .decided_tsc = 10,
                                        .payload = SamplePayload(TypeParam())};
  ASSERT_NE(log.Add(action), nullptr);
  EXPECT_EQ(log.applied(), 0u);
  // One action per fingerprint: a second one is refused and leaves the log unchanged.
  EXPECT_EQ(log.Add(action), nullptr);
  EXPECT_EQ(log.actions().size(), 1u);

  GuardedAction<TypeParam>* open = log.Find(0x11);
  ASSERT_NE(open, nullptr);
  open->state = GuardState::kApplied;
  open->applied_tsc = 20;
  EXPECT_EQ(log.applied(), 1u);
  open->state = GuardState::kKept;
  open->resolved_tsc = 30;
  EXPECT_EQ(log.applied(), 1u);
  EXPECT_EQ(log.kept(), 1u);
  EXPECT_EQ(log.reverted(), 0u);

  ASSERT_NE(log.Add({.fingerprint = 0x22, .plan_name = "q_other", .state = GuardState::kReverted}),
            nullptr);
  EXPECT_EQ(log.applied(), 1u);
  EXPECT_EQ(log.reverted(), 1u);
  EXPECT_EQ(log.Find(0x33), nullptr);

  // Unset timestamps stay off the line; the detail comes from the payload.
  EXPECT_EQ(RenderGuardTimeline(log),
            header + "plan 0000000000000011 q_join [kept] " + SampleDetail(TypeParam()) +
                " decided@10 applied@20 resolved@30\n" +
                "plan 0000000000000022 q_other [reverted] " + TypeParam().Detail() +
                " decided@0\n");

  for (GuardState state : {GuardState::kDecided, GuardState::kApplied, GuardState::kKept,
                           GuardState::kReverted}) {
    GuardState parsed;
    ASSERT_TRUE(GuardStateFromName(GuardStateName(state), &parsed));
    EXPECT_EQ(parsed, state);
  }
  GuardState parsed;
  EXPECT_FALSE(GuardStateFromName("bogus", &parsed));
}

}  // namespace
}  // namespace dfp
