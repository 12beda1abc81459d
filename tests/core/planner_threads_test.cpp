// Thread invariance of the planners. Their one thread axis sits inside the
// satisfiability check (CheckerConfig::router_threads: the ECMP router
// recomputes independent dirty demand groups in parallel), and the search
// itself stays serial, so A* and DP must return the same actions, the same
// cost and the same value for every PlannerStats counter at any router
// thread count.
#include <gtest/gtest.h>

#include <string>

#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"

namespace klotski::core {
namespace {

struct PresetParam {
  topo::PresetId id;
  topo::TopologyFamily family;
  const char* name;
};

Plan plan_with_router_threads(const PresetParam& param,
                              const std::string& planner,
                              int router_threads) {
  migration::MigrationCase mig = pipeline::build_family_experiment(
      param.family, param.id, topo::PresetScale::kReduced);
  pipeline::CheckerConfig config;
  config.router_threads = router_threads;
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, config);
  PlannerOptions options;
  options.deadline_seconds = 300.0;
  return pipeline::make_planner(planner)->plan(mig.task, *bundle.checker,
                                               options);
}

void expect_identical(const Plan& serial, const Plan& threaded) {
  ASSERT_TRUE(serial.found) << serial.failure;
  ASSERT_TRUE(threaded.found) << threaded.failure;
  EXPECT_EQ(serial.cost, threaded.cost);
  EXPECT_EQ(serial.actions, threaded.actions);
  EXPECT_EQ(serial.stats.visited_states, threaded.stats.visited_states);
  EXPECT_EQ(serial.stats.generated_states, threaded.stats.generated_states);
  EXPECT_EQ(serial.stats.sat_checks, threaded.stats.sat_checks);
  EXPECT_EQ(serial.stats.cache_hits, threaded.stats.cache_hits);
  EXPECT_EQ(serial.stats.evaluations, threaded.stats.evaluations);
  EXPECT_EQ(serial.stats.delta_applies, threaded.stats.delta_applies);
  EXPECT_EQ(serial.stats.full_replays, threaded.stats.full_replays);
  EXPECT_EQ(serial.stats.frontier_peak, threaded.stats.frontier_peak);
}

class ParallelPlannerDeterminism
    : public ::testing::TestWithParam<PresetParam> {};

TEST_P(ParallelPlannerDeterminism, AStarPlanIsIdentical) {
  expect_identical(plan_with_router_threads(GetParam(), "astar", 1),
                   plan_with_router_threads(GetParam(), "astar", 4));
}

TEST_P(ParallelPlannerDeterminism, DpPlanAndStatsAreBitIdentical) {
  expect_identical(plan_with_router_threads(GetParam(), "dp", 1),
                   plan_with_router_threads(GetParam(), "dp", 4));
}

std::string param_name(const ::testing::TestParamInfo<PresetParam>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(
    PresetsAToC, ParallelPlannerDeterminism,
    ::testing::Values(
        PresetParam{topo::PresetId::kA, topo::TopologyFamily::kClos, "A"},
        PresetParam{topo::PresetId::kB, topo::TopologyFamily::kClos, "B"},
        PresetParam{topo::PresetId::kC, topo::TopologyFamily::kClos, "C"}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    FlatAndReconfA, ParallelPlannerDeterminism,
    ::testing::Values(
        PresetParam{topo::PresetId::kA, topo::TopologyFamily::kFlat, "Flat"},
        PresetParam{topo::PresetId::kA, topo::TopologyFamily::kReconf,
                    "Reconf"}),
    param_name);

}  // namespace
}  // namespace klotski::core
