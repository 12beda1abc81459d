// Determinism and equivalence properties:
//  * planners are deterministic (same inputs -> byte-identical plans),
//  * the satisfiability cache never changes a verdict (ESC is an
//    optimization, not an approximation),
//  * grouped ECMP assignment equals per-demand assignment on arbitrary
//    intermediate topologies,
//  * randomly generated JSON documents survive dump/parse round trips.
#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/json/json.h"
#include "klotski/pipeline/edp.h"
#include "klotski/util/rng.h"

namespace klotski {
namespace {

TEST(Determinism, PlannersProduceIdenticalPlansOnRepeat) {
  for (const char* name : {"astar", "dp", "mrc", "janus"}) {
    migration::MigrationCase mig = testing::small_hgrid_case();
    auto run = [&]() {
      pipeline::CheckerBundle bundle =
          pipeline::make_standard_checker(mig.task, {});
      return pipeline::make_planner(name)->plan(mig.task, *bundle.checker,
                                                {});
    };
    const core::Plan first = run();
    const core::Plan second = run();
    ASSERT_EQ(first.found, second.found) << name;
    if (!first.found) continue;
    EXPECT_DOUBLE_EQ(first.cost, second.cost) << name;
    ASSERT_EQ(first.actions.size(), second.actions.size()) << name;
    for (std::size_t i = 0; i < first.actions.size(); ++i) {
      EXPECT_EQ(first.actions[i], second.actions[i]) << name << " @" << i;
    }
  }
}

TEST(Determinism, TaskBuildersAreDeterministic) {
  migration::MigrationCase a = testing::small_dmag_case();
  migration::MigrationCase b = testing::small_dmag_case();
  ASSERT_EQ(a.task.topo->num_switches(), b.task.topo->num_switches());
  ASSERT_EQ(a.task.topo->num_circuits(), b.task.topo->num_circuits());
  EXPECT_TRUE(a.task.original_state ==
              topo::TopologyState::capture(*b.task.topo));
  ASSERT_EQ(a.task.blocks.size(), b.task.blocks.size());
  for (std::size_t t = 0; t < a.task.blocks.size(); ++t) {
    ASSERT_EQ(a.task.blocks[t].size(), b.task.blocks[t].size());
    for (std::size_t i = 0; i < a.task.blocks[t].size(); ++i) {
      EXPECT_EQ(a.task.blocks[t][i].label, b.task.blocks[t][i].label);
      EXPECT_EQ(a.task.blocks[t][i].ops.size(),
                b.task.blocks[t][i].ops.size());
    }
  }
}

TEST(CacheEquivalence, EscNeverChangesAVerdict) {
  migration::MigrationCase mig = testing::small_ssw_case();
  migration::MigrationTask& task = mig.task;
  pipeline::CheckerBundle cached_stack =
      pipeline::make_standard_checker(task, {});
  pipeline::CheckerBundle raw_stack =
      pipeline::make_standard_checker(task, {});
  core::StateEvaluator cached(task, *cached_stack.checker, true);
  core::StateEvaluator raw(task, *raw_stack.checker, false);

  util::Rng rng(404);
  const core::CountVector& target = cached.target();
  for (int trial = 0; trial < 200; ++trial) {
    core::CountVector counts(target.size());
    for (std::size_t t = 0; t < target.size(); ++t) {
      counts[t] =
          static_cast<std::int32_t>(rng.uniform_int(0, target[t]));
    }
    EXPECT_EQ(cached.feasible(counts), raw.feasible(counts))
        << "trial " << trial;
    // Ask the cached evaluator twice: the second answer must not drift.
    EXPECT_EQ(cached.feasible(counts), raw.feasible(counts));
  }
  EXPECT_GT(cached.cache_hits(), 0);
  task.reset_to_original();
}

TEST(CacheEquivalence, AssignAllMatchesPerDemandOnIntermediateStates) {
  migration::MigrationCase mig = testing::small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  constraints::CompositeChecker no_constraints;
  core::StateEvaluator evaluator(task, no_constraints, false);
  traffic::EcmpRouter router(*task.topo);

  util::Rng rng(77);
  const core::CountVector& target = evaluator.target();
  for (int trial = 0; trial < 20; ++trial) {
    core::CountVector counts(target.size());
    for (std::size_t t = 0; t < target.size(); ++t) {
      counts[t] =
          static_cast<std::int32_t>(rng.uniform_int(0, target[t]));
    }
    evaluator.materialize(counts);

    traffic::LoadVector merged;
    const bool merged_ok = router.assign_all(task.demands, merged);
    traffic::LoadVector separate(task.topo->num_circuits() * 2, 0);
    bool separate_ok = true;
    for (const traffic::Demand& d : task.demands) {
      separate_ok = separate_ok && router.assign(d, separate);
    }
    ASSERT_EQ(merged_ok, separate_ok) << "trial " << trial;
    if (!merged_ok) continue;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      ASSERT_NEAR(traffic::to_tbps(merged[i]), traffic::to_tbps(separate[i]),
                  1e-9)
          << "trial " << trial << " slot " << i;
    }
  }
  task.reset_to_original();
}

// ---------------------------------------------------------------------------
// JSON fuzz round-trip

json::Value random_json(util::Rng& rng, int depth) {
  const auto kind = rng.uniform_int(0, depth <= 0 ? 4 : 6);
  switch (kind) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.chance(0.5));
    case 2: return json::Value(rng.uniform_int(-1'000'000, 1'000'000));
    case 3: return json::Value(rng.uniform_real(-1e6, 1e6));
    case 4: {
      std::string s;
      const auto len = rng.uniform_int(0, 12);
      for (int i = 0; i < len; ++i) {
        // Mix printable ASCII with characters that need escaping.
        const char* alphabet = "ab\"\\\n\tz 0/";
        s.push_back(alphabet[rng.index(10)]);
      }
      return json::Value(std::move(s));
    }
    case 5: {
      json::Array arr;
      const auto len = rng.uniform_int(0, 5);
      for (int i = 0; i < len; ++i) arr.push_back(random_json(rng, depth - 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Object obj;
      const auto len = rng.uniform_int(0, 5);
      for (int i = 0; i < len; ++i) {
        obj[std::string("k").append(std::to_string(i))] =
            random_json(rng, depth - 1);
      }
      return json::Value(std::move(obj));
    }
  }
}

class JsonFuzz : public ::testing::TestWithParam<int> {};

TEST_P(JsonFuzz, DumpParseRoundTrip) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const json::Value v = random_json(rng, 4);
    EXPECT_TRUE(json::parse(json::dump(v)) == v) << json::dump(v);
    EXPECT_TRUE(json::parse(json::dump(v, 2)) == v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace klotski
