#include "klotski/util/thread_budget.h"

#include <gtest/gtest.h>

namespace klotski::util {
namespace {

TEST(ThreadBudget, SingleOuterGetsWholeInnerBudget) {
  const ThreadBudget b = split_thread_budget(1, 4);
  EXPECT_EQ(b.outer, 1);
  EXPECT_EQ(b.inner, 4);
}

TEST(ThreadBudget, InnerBudgetDividesAcrossOuter) {
  EXPECT_EQ(split_thread_budget(2, 8).inner, 4);
  EXPECT_EQ(split_thread_budget(3, 8).inner, 2);  // floor division
  EXPECT_EQ(split_thread_budget(4, 8).inner, 2);
  EXPECT_EQ(split_thread_budget(8, 8).inner, 1);
}

TEST(ThreadBudget, InnerNeverDropsBelowOne) {
  EXPECT_EQ(split_thread_budget(8, 1).inner, 1);
  EXPECT_EQ(split_thread_budget(16, 4).inner, 1);
}

TEST(ThreadBudget, NonPositiveOuterClampsToOne) {
  EXPECT_EQ(split_thread_budget(0, 6).outer, 1);
  EXPECT_EQ(split_thread_budget(-3, 6).outer, 1);
  EXPECT_EQ(split_thread_budget(0, 6).inner, 6);
}

TEST(ThreadBudget, MaxOuterCapsThePool) {
  // The chaos-sweep pattern: never spawn more workers than there are seeds.
  const ThreadBudget b = split_thread_budget(16, 1, /*max_outer=*/5);
  EXPECT_EQ(b.outer, 5);
  EXPECT_EQ(b.inner, 1);
  EXPECT_EQ(split_thread_budget(3, 1, 5).outer, 3);
  EXPECT_EQ(split_thread_budget(0, 1, 5).outer, 1);
}

// Regression: the shared helper must reproduce the splits the tools
// computed locally before it existed (max(1, budget / workers) for the
// per-worker share, clamp(threads, 1, seeds) for the chaos sweep pool).
TEST(ThreadBudget, MatchesHistoricalToolBehaviour) {
  const int old_style[][3] = {
      // {outer workers, inner budget, expected per-worker share}
      {1, 1, 1}, {1, 8, 8}, {2, 8, 4}, {4, 8, 2},
      {4, 4, 1}, {6, 4, 1}, {4, 6, 1}, {3, 7, 2},
  };
  for (const auto& row : old_style) {
    EXPECT_EQ(split_thread_budget(row[0], row[1]).inner, row[2])
        << "outer=" << row[0] << " budget=" << row[1];
  }
}

TEST(ThreadBudget, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1);
}

}  // namespace
}  // namespace klotski::util
