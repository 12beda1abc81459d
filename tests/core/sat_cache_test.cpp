#include <gtest/gtest.h>

#include "klotski/core/sat_cache.h"

namespace klotski::core {
namespace {

TEST(SatCache, MissThenHit) {
  SatCache cache;
  EXPECT_FALSE(cache.lookup({1, 2}).has_value());
  cache.store({1, 2}, true);
  ASSERT_TRUE(cache.lookup({1, 2}).has_value());
  EXPECT_TRUE(*cache.lookup({1, 2}));
}

TEST(SatCache, StoresNegativeVerdicts) {
  SatCache cache;
  cache.store({0, 5}, false);
  ASSERT_TRUE(cache.lookup({0, 5}).has_value());
  EXPECT_FALSE(*cache.lookup({0, 5}));
}

TEST(SatCache, DistinguishesKeys) {
  SatCache cache;
  cache.store({1, 0}, true);
  cache.store({0, 1}, false);
  EXPECT_TRUE(*cache.lookup({1, 0}));
  EXPECT_FALSE(*cache.lookup({0, 1}));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SatCache, FirstStoreWins) {
  // The verdict of a topology never changes, so a duplicate store is a
  // no-op rather than an overwrite.
  SatCache cache;
  cache.store({2, 2}, true);
  cache.store({2, 2}, false);
  EXPECT_TRUE(*cache.lookup({2, 2}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SatCache, Clear) {
  SatCache cache;
  cache.store({1}, true);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup({1}).has_value());
}

TEST(SatCache, MemoryFootprintIsCompact) {
  // The point of the compact representation (§4.2): thousands of cached
  // states fit in well under a megabyte.
  SatCache cache;
  for (std::int32_t i = 0; i < 100; ++i) {
    for (std::int32_t j = 0; j < 100; ++j) {
      cache.store({i, j}, (i + j) % 2 == 0);
    }
  }
  EXPECT_EQ(cache.size(), 10000u);
  EXPECT_LT(cache.approx_memory_bytes(), 2u * 1024 * 1024);
}

TEST(SatCache, ClearReleasesItsMemoryAndKeepsWorking) {
  // The budgeted A* planner clears the table when it compacts: the bytes
  // must really go (they count against the budget), and the table must
  // serve the rest of the search as if new.
  SatCache cache;
  for (std::int32_t i = 0; i < 1000; ++i) cache.store({i, 3}, i % 3 != 0);
  const std::size_t filled = cache.approx_memory_bytes();
  EXPECT_GT(filled, 1000u * 2 * sizeof(std::int32_t));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.approx_memory_bytes(), 0u);
  EXPECT_FALSE(cache.lookup({0, 3}).has_value());

  // A cleared verdict can be stored again, even the opposite one.
  cache.store({0, 3}, true);
  cache.store({1, 3}, false);
  ASSERT_TRUE(cache.lookup({0, 3}).has_value());
  EXPECT_TRUE(*cache.lookup({0, 3}));
  ASSERT_TRUE(cache.lookup({1, 3}).has_value());
  EXPECT_FALSE(*cache.lookup({1, 3}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_LT(cache.approx_memory_bytes(), filled);
}

}  // namespace
}  // namespace klotski::core
