#include <gtest/gtest.h>

#include "src/profiling/abstraction_tracker.h"
#include "src/profiling/tagging_dictionary.h"

namespace dfp {
namespace {

TEST(AbstractionTracker, StackDiscipline) {
  AbstractionTracker<uint32_t> tracker;
  tracker.Push(1);
  tracker.Push(2);
  EXPECT_EQ(tracker.Active(), 2u);
  tracker.Pop();
  EXPECT_EQ(tracker.Active(), 1u);
  {
    TrackerScope<uint32_t> scope(&tracker, 9);
    EXPECT_EQ(tracker.Active(), 9u);
  }
  EXPECT_EQ(tracker.Active(), 1u);
}

TEST(TaggingDictionary, LogALinksTasksToOperators) {
  TaggingDictionary dict;
  TaskId scan = dict.AddTask(3, "scan");
  TaskId probe = dict.AddTask(7, "probe");
  EXPECT_EQ(dict.OperatorOf(scan), 3u);
  EXPECT_EQ(dict.OperatorOf(probe), 7u);
  EXPECT_EQ(dict.task(probe).name, "probe");
  EXPECT_EQ(dict.log_a_entries(), 2u);
}

TEST(TaggingDictionary, LogBLinksInstructionsToTasks) {
  TaggingDictionary dict;
  TaskId scan = dict.AddTask(0, "scan");
  dict.LinkInstr(100, scan);
  dict.LinkInstr(101, scan);
  ASSERT_NE(dict.TasksOf(100), nullptr);
  EXPECT_EQ(dict.TasksOf(100)->front(), scan);
  EXPECT_EQ(dict.TasksOf(999), nullptr);
  EXPECT_EQ(dict.log_b_entries(), 2u);
}

TEST(TaggingDictionary, RemoveDropsEntries) {
  TaggingDictionary dict;
  TaskId task = dict.AddTask(0, "t");
  dict.LinkInstr(5, task);
  dict.OnRemove(5);
  EXPECT_EQ(dict.TasksOf(5), nullptr);
}

TEST(TaggingDictionary, AbsorbMergesOwners) {
  TaggingDictionary dict;
  TaskId a = dict.AddTask(0, "a");
  TaskId b = dict.AddTask(1, "b");
  dict.LinkInstr(10, a);
  dict.LinkInstr(11, b);
  dict.OnAbsorb(10, 11);  // Instruction 10 now serves both tasks.
  ASSERT_NE(dict.TasksOf(10), nullptr);
  EXPECT_EQ(dict.TasksOf(10)->size(), 2u);
  // Absorbing twice does not duplicate owners.
  dict.OnAbsorb(10, 11);
  EXPECT_EQ(dict.TasksOf(10)->size(), 2u);
}

TEST(TaggingDictionary, AbsorbOfSameTaskKeepsSingleOwner) {
  TaggingDictionary dict;
  TaskId a = dict.AddTask(0, "a");
  dict.LinkInstr(10, a);
  dict.LinkInstr(11, a);
  dict.OnAbsorb(10, 11);
  EXPECT_EQ(dict.TasksOf(10)->size(), 1u);
}

TEST(TaggingDictionary, ByteAccounting) {
  TaggingDictionary dict;
  TaskId task = dict.AddTask(0, "scan");
  for (uint32_t i = 0; i < 100; ++i) {
    dict.LinkInstr(i, task);
  }
  // ~8 bytes per Log B pair plus the Log A row.
  EXPECT_GE(dict.ApproxBytes(), 800u);
  EXPECT_LE(dict.ApproxBytes(), 1000u);
}

}  // namespace
}  // namespace dfp
