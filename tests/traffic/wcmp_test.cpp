#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "klotski/pipeline/edp.h"
#include "klotski/traffic/ecmp.h"

namespace klotski::traffic {
namespace {

using klotski::testing::Diamond;

TEST(Wcmp, SplitsProportionallyToCapacity) {
  Diamond d;
  d.topo.circuit(d.c_sm1).capacity_tbps = 3.0;  // m1 branch 3x wider
  d.topo.circuit(d.c_m1t).capacity_tbps = 3.0;
  EcmpRouter router(d.topo, SplitMode::kCapacityWeighted);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm1) * 2]), 0.75);
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm2) * 2]), 0.25);
}

TEST(Wcmp, EqualCapacitiesMatchPlainEcmp) {
  Diamond ecmp_d;
  Diamond wcmp_d;
  EcmpRouter ecmp(ecmp_d.topo, SplitMode::kEqualSplit);
  EcmpRouter wcmp(wcmp_d.topo, SplitMode::kCapacityWeighted);
  LoadVector a, b;
  ASSERT_TRUE(ecmp.assign(ecmp_d.demand(1.0), a));
  ASSERT_TRUE(wcmp.assign(wcmp_d.demand(1.0), b));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
}

TEST(Wcmp, BalancesMixedGenerationUtilization) {
  // The §7.1 outage scenario in miniature: one thin and one wide branch.
  // Plain ECMP overloads the thin one; WCMP equalizes utilization.
  Diamond d;
  d.topo.circuit(d.c_sm1).capacity_tbps = 4.0;
  d.topo.circuit(d.c_m1t).capacity_tbps = 4.0;
  // Thin branch keeps capacity 1.0. Demand 2.5:
  //   ECMP: 1.25 on the thin branch -> 125% utilization (overload).
  //   WCMP: 0.5 on thin (50%), 2.0 on wide (50%).
  {
    EcmpRouter router(d.topo, SplitMode::kEqualSplit);
    LoadVector loads;
    ASSERT_TRUE(router.assign(d.demand(2.5), loads));
    EXPECT_GT(max_utilization(d.topo, loads), 1.0);
  }
  {
    EcmpRouter router(d.topo, SplitMode::kCapacityWeighted);
    LoadVector loads;
    ASSERT_TRUE(router.assign(d.demand(2.5), loads));
    EXPECT_NEAR(max_utilization(d.topo, loads), 0.5, 1e-9);
  }
}

TEST(Wcmp, ModeSwitchableAtRuntime) {
  Diamond d;
  d.topo.circuit(d.c_sm1).capacity_tbps = 3.0;
  d.topo.circuit(d.c_m1t).capacity_tbps = 3.0;
  EcmpRouter router(d.topo);
  EXPECT_EQ(router.split_mode(), SplitMode::kEqualSplit);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm1) * 2]), 0.5);

  router.set_split_mode(SplitMode::kCapacityWeighted);
  loads.assign(loads.size(), 0);
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm1) * 2]), 0.75);
}

TEST(Wcmp, ConservationHolds) {
  Diamond d;
  d.topo.circuit(d.c_sm1).capacity_tbps = 2.5;
  d.topo.circuit(d.c_m1t).capacity_tbps = 2.5;
  EcmpRouter router(d.topo, SplitMode::kCapacityWeighted);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  // Everything injected arrives: the two t-side circuit loads sum to 1.
  EXPECT_NEAR(to_tbps(loads[static_cast<std::size_t>(d.c_m1t) * 2]) +
                  to_tbps(loads[static_cast<std::size_t>(d.c_m2t) * 2]),
              1.0, 1e-12);
}

TEST(AssignAll, MatchesPerDemandAssignment) {
  // assign_all merges demands sharing a target set; the result must equal
  // the sum of individual assignments up to share rounding.
  migration::MigrationCase mig = klotski::testing::small_hgrid_case();
  EcmpRouter router(*mig.task.topo);

  LoadVector merged;
  ASSERT_TRUE(router.assign_all(mig.task.demands, merged));

  LoadVector separate(mig.task.topo->num_circuits() * 2, 0);
  for (const Demand& demand : mig.task.demands) {
    ASSERT_TRUE(router.assign(demand, separate));
  }
  ASSERT_EQ(merged.size(), separate.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_NEAR(to_tbps(merged[i]), to_tbps(separate[i]), 1e-9)
        << "slot " << i;
  }
}

TEST(AssignAll, ReportsFailedDemandByName) {
  Diamond d;
  d.topo.sw(d.m1).state = topo::ElementState::kAbsent;
  d.topo.sw(d.m2).state = topo::ElementState::kAbsent;
  EcmpRouter router(d.topo);
  LoadVector loads;
  std::string failed;
  EXPECT_FALSE(router.assign_all({d.demand(1.0)}, loads, &failed));
  EXPECT_EQ(failed, "s-to-t");
}

TEST(Wcmp, PlannerCanUseWcmpThroughPipeline) {
  // A WCMP checker stack plans successfully end to end.
  migration::MigrationCase mig = klotski::testing::small_hgrid_case();
  pipeline::CheckerConfig config;
  config.routing = SplitMode::kCapacityWeighted;
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, config);
  const core::Plan plan =
      pipeline::make_planner("astar")->plan(mig.task, *bundle.checker, {});
  EXPECT_TRUE(plan.found) << plan.failure;
}

}  // namespace
}  // namespace klotski::traffic
