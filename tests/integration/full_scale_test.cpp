// Full-scale (paper-scale) structural validation. Building even the largest
// preset takes well under a second, so every structural property of Table 3
// is asserted here at full size; planning at full scale is exercised on the
// presets where it completes in test time (the complete full-scale planner
// numbers are recorded in EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/topo/presets.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/traffic/generator.h"

namespace klotski {
namespace {

// The bands sit in a static table rather than in stack temporaries: gtest
// prints a parameter without a PrintTo as its raw bytes, ctest folds that
// dump into the test name, and static storage zeroes the padding after `id`
// that the name would otherwise read as stack garbage.
struct Table3Band {
  pipeline::ExperimentId id;
  std::size_t min_switches, max_switches;
  std::size_t min_circuits, max_circuits;
  int min_actions, max_actions;
};

class FullScaleTable3 : public ::testing::TestWithParam<Table3Band> {};

TEST_P(FullScaleTable3, MatchesPaperBands) {
  const Table3Band band = GetParam();
  migration::MigrationCase mig =
      pipeline::build_experiment(band.id, topo::PresetScale::kFull);
  const migration::MigrationTask& task = mig.task;

  EXPECT_GE(task.topo->count_present_switches(), band.min_switches);
  EXPECT_LE(task.topo->count_present_switches(), band.max_switches);
  EXPECT_GE(task.topo->count_present_circuits(), band.min_circuits);
  EXPECT_LE(task.topo->count_present_circuits(), band.max_circuits);
  EXPECT_GE(task.total_actions(), band.min_actions);
  EXPECT_LE(task.total_actions(), band.max_actions);
}

TEST_P(FullScaleTable3, TaskValidatesAndOriginIsSafe) {
  migration::MigrationCase mig =
      pipeline::build_experiment(GetParam().id, topo::PresetScale::kFull);
  EXPECT_EQ(mig.task.validate(), "");

  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  mig.task.reset_to_original();
  const constraints::Verdict origin = bundle.checker->check(*mig.task.topo);
  EXPECT_TRUE(origin.satisfied) << origin.violation;

  mig.task.target_state.restore(*mig.task.topo);
  const constraints::Verdict target = bundle.checker->check(*mig.task.topo);
  EXPECT_TRUE(target.satisfied) << target.violation;
  mig.task.reset_to_original();
}

// Paper: A ~40 sw / ~80 ckt; B ~100 / ~600; C ~600 / ~8,000;
// D ~1,000 / ~20,000; E and variants ~10,000 / ~100,000.
constexpr Table3Band kTable3Bands[] = {
    {pipeline::ExperimentId::kA, 25, 60, 50, 120, 6, 60},
    {pipeline::ExperimentId::kB, 80, 150, 400, 800, 10, 120},
    {pipeline::ExperimentId::kC, 450, 800, 6000, 10000, 60, 350},
    {pipeline::ExperimentId::kD, 800, 1500, 15000, 25000, 80, 350},
    {pipeline::ExperimentId::kE, 8000, 15000, 70000, 150000, 400, 900},
    {pipeline::ExperimentId::kEDmag, 8000, 15000, 70000, 150000, 60, 160},
    {pipeline::ExperimentId::kESsw, 8000, 15000, 70000, 150000, 150, 400},
};

INSTANTIATE_TEST_SUITE_P(
    PaperBands, FullScaleTable3, ::testing::ValuesIn(kTable3Bands),
    [](const auto& info) {
      std::string name = pipeline::to_string(info.param.id);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(FullScale, EDemandsAreCalibratedFeasible) {
  topo::Region region =
      topo::build_preset(topo::PresetId::kE, topo::PresetScale::kFull);
  const traffic::DemandSet demands = traffic::generate_demands(region);
  traffic::EcmpRouter router(region.topo);
  traffic::LoadVector loads;
  ASSERT_TRUE(router.assign_all(demands, loads));
  const double worst = traffic::max_utilization(region.topo, loads);
  EXPECT_LT(worst, 0.75);  // feasible at the default theta
  EXPECT_GT(worst, 0.20);  // ... but not trivially so
}

TEST(FullScale, CPlansOptimallyAndAudits) {
  // Full-scale C (588 switches / 7,456 circuits / 120 actions) plans in
  // seconds; the A*/DP equality and the audit run here at paper scale.
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kC, topo::PresetScale::kFull);
  migration::MigrationTask& task = mig.task;

  core::PlannerOptions options;
  options.deadline_seconds = 300;
  auto run = [&](const char* name) {
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    return pipeline::make_planner(name)->plan(task, *bundle.checker,
                                              options);
  };
  const core::Plan astar = run("astar");
  const core::Plan dp = run("dp");
  ASSERT_TRUE(astar.found) << astar.failure;
  ASSERT_TRUE(dp.found) << dp.failure;
  EXPECT_DOUBLE_EQ(astar.cost, dp.cost);

  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  EXPECT_TRUE(pipeline::audit_plan(task, *bundle.checker, astar).ok);
}

TEST(FullScale, EDmagPlansWithinBudget) {
  // The E-DMAG full-scale task has ~100 actions over three types: small
  // enough to plan in test time even on the 107k-circuit topology.
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kEDmag, topo::PresetScale::kFull);
  core::PlannerOptions options;
  options.deadline_seconds = 400;
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  const core::Plan plan =
      pipeline::make_planner("astar")->plan(mig.task, *bundle.checker,
                                            options);
  ASSERT_TRUE(plan.found) << plan.failure;
  pipeline::CheckerBundle audit_bundle =
      pipeline::make_standard_checker(mig.task, {});
  EXPECT_TRUE(pipeline::audit_plan(mig.task, *audit_bundle.checker, plan).ok);
}

}  // namespace
}  // namespace klotski
