#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "klotski/constraints/composite.h"
#include "klotski/constraints/demand_checker.h"
#include "klotski/constraints/port_checker.h"
#include "klotski/constraints/space_power_checker.h"

namespace klotski::constraints {
namespace {

using klotski::testing::Diamond;

// ---------------------------------------------------------------------------
// Port checker

TEST(PortChecker, PassesWithinBudget) {
  Diamond d;
  PortChecker checker;
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

TEST(PortChecker, FailsOnOverflowAndNamesTheSwitch) {
  Diamond d;
  d.topo.sw(d.s).max_ports = 1;  // s has two circuits
  PortChecker checker;
  const Verdict v = checker.check(d.topo);
  EXPECT_FALSE(v.satisfied);
  EXPECT_NE(v.violation.find("s"), std::string::npos);
}

TEST(PortChecker, AbsentSwitchesAreNotChecked) {
  Diamond d;
  d.topo.sw(d.s).max_ports = 1;
  d.topo.sw(d.s).state = topo::ElementState::kAbsent;
  PortChecker checker;
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

TEST(PortChecker, StagedCircuitsDoNotOccupyPorts) {
  Diamond d;
  d.topo.sw(d.s).max_ports = 2;
  // A staged (absent) extra circuit must not count.
  d.topo.add_circuit(d.s, d.t, 1.0, topo::ElementState::kAbsent);
  PortChecker checker;
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

// ---------------------------------------------------------------------------
// Demand checker

TEST(DemandChecker, PassesUnderThreshold) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.0)}, {.max_utilization = 0.75});
  // 0.5 load on 1.0 capacity = 50% < 75%.
  EXPECT_TRUE(checker.check(d.topo).satisfied);
  EXPECT_NEAR(checker.last_max_utilization(), 0.5, 1e-9);
}

TEST(DemandChecker, FailsOverThreshold) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.8)}, {.max_utilization = 0.75});
  const Verdict v = checker.check(d.topo);
  EXPECT_FALSE(v.satisfied);
  EXPECT_NE(v.violation.find("theta"), std::string::npos);
}

// Two circuits over theta, the lower-id one less loaded: the violation
// names the first over-theta circuit in id order, and the scan still goes
// on to record the full peak.
TEST(DemandChecker, ThetaFailureNamesTheFirstCircuitAndRecordsTheFullPeak) {
  Diamond d;
  // Equal split puts 0.6 Tbps on every circuit: 80% on s - m1 (id 0) at
  // 0.75 Tbps, 120% on m2 - t (id 3) at 0.5 Tbps, 60% on the other two.
  d.topo.circuit(d.c_sm1).capacity_tbps = 0.75;
  d.topo.circuit(d.c_m2t).capacity_tbps = 0.5;
  ASSERT_LT(d.c_sm1, d.c_m2t);
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.2)}, {.max_utilization = 0.75});
  const Verdict v = checker.check(d.topo);
  EXPECT_FALSE(v.satisfied);
  EXPECT_NE(v.violation.find("circuit " + std::to_string(d.c_sm1) +
                             " (s - m1) at 80% > theta 75%"),
            std::string::npos)
      << v.violation;
  EXPECT_NEAR(checker.last_max_utilization(), 1.2, 1e-9);
}

TEST(DemandChecker, FailsOnDisconnection) {
  Diamond d;
  d.topo.sw(d.m1).state = topo::ElementState::kAbsent;
  d.topo.sw(d.m2).state = topo::ElementState::kAbsent;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(0.1)}, {});
  const Verdict v = checker.check(d.topo);
  EXPECT_FALSE(v.satisfied);
  EXPECT_NE(v.violation.find("no path"), std::string::npos);
}

TEST(DemandChecker, AggregatesAcrossDemands) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  // Two demands of 0.8 each: per-branch load = 0.8 > 0.75.
  DemandChecker checker(router, {d.demand(0.8), d.demand(0.8)},
                        {.max_utilization = 0.75});
  EXPECT_FALSE(checker.check(d.topo).satisfied);
}

TEST(DemandChecker, ThetaMonotonicity) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.2)}, {});
  checker.set_max_utilization(0.55);
  EXPECT_FALSE(checker.check(d.topo).satisfied);  // 60% > 55%
  checker.set_max_utilization(0.65);
  EXPECT_TRUE(checker.check(d.topo).satisfied);   // 60% < 65%
}

TEST(DemandChecker, FunnelingMarginTightensNearDrains) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  // Drain one branch: the other carries 0.7 (70%).
  d.topo.circuit(d.c_sm2).state = topo::ElementState::kDrained;
  d.topo.circuit(d.c_m2t).state = topo::ElementState::kDrained;

  DemandCheckerParams strict;
  strict.max_utilization = 0.75;
  strict.funneling_margin = 0.0;
  DemandChecker no_margin(router, {d.demand(0.7)}, strict);
  EXPECT_TRUE(no_margin.check(d.topo).satisfied);

  strict.funneling_margin = 0.2;  // 0.7 * 1.2 = 84% > 75%
  DemandChecker with_margin(router, {d.demand(0.7)}, strict);
  EXPECT_FALSE(with_margin.check(d.topo).satisfied);
}

TEST(DemandChecker, SetDemandsReplacesLoad) {
  Diamond d;
  traffic::EcmpRouter router(d.topo);
  DemandChecker checker(router, {d.demand(1.8)}, {});
  EXPECT_FALSE(checker.check(d.topo).satisfied);
  checker.set_demands({d.demand(0.2)});
  EXPECT_TRUE(checker.check(d.topo).satisfied);
}

// ---------------------------------------------------------------------------
// Space/power checker

topo::Topology grid_topology(int switches_in_grid, int grid = 0) {
  topo::Topology t;
  for (int i = 0; i < switches_in_grid; ++i) {
    topo::Location loc;
    loc.grid = static_cast<std::int16_t>(grid);
    t.add_switch(topo::SwitchRole::kFadu, topo::Generation::kV1, loc, 8,
                 topo::ElementState::kActive,
                 std::string("f").append(std::to_string(i)));
  }
  return t;
}

TEST(SpacePowerChecker, GridCapEnforced) {
  topo::Topology t = grid_topology(4);
  SpacePowerChecker ok(SpacePowerParams{.max_present_per_grid = 4});
  EXPECT_TRUE(ok.check(t).satisfied);
  SpacePowerChecker tight(SpacePowerParams{.max_present_per_grid = 3});
  EXPECT_FALSE(tight.check(t).satisfied);
}

TEST(SpacePowerChecker, AbsentSwitchesDoNotCount) {
  topo::Topology t = grid_topology(4);
  t.sw(0).state = topo::ElementState::kAbsent;
  SpacePowerChecker tight(SpacePowerParams{.max_present_per_grid = 3});
  EXPECT_TRUE(tight.check(t).satisfied);
}

TEST(SpacePowerChecker, ZeroDisablesCap) {
  topo::Topology t = grid_topology(100);
  SpacePowerChecker disabled(SpacePowerParams{});
  EXPECT_TRUE(disabled.check(t).satisfied);
}

TEST(SpacePowerChecker, PlaneCapCountsSsws) {
  topo::Topology t;
  for (int i = 0; i < 3; ++i) {
    topo::Location loc;
    loc.dc = 0;
    loc.plane = 1;
    t.add_switch(topo::SwitchRole::kSsw, topo::Generation::kV1, loc, 8,
                 topo::ElementState::kActive,
                 std::string("s").append(std::to_string(i)));
  }
  SpacePowerChecker tight(SpacePowerParams{.max_present_per_plane = 2});
  EXPECT_FALSE(tight.check(t).satisfied);
  SpacePowerChecker ok(SpacePowerParams{.max_present_per_plane = 3});
  EXPECT_TRUE(ok.check(t).satisfied);
}

// ---------------------------------------------------------------------------
// Composite

class FlagChecker : public Checker {
 public:
  FlagChecker(bool pass, int* calls) : pass_(pass), calls_(calls) {}
  Verdict check(const topo::Topology&) override {
    ++*calls_;
    return pass_ ? Verdict::ok() : Verdict::fail("flag");
  }
  std::string name() const override { return "flag"; }

 private:
  bool pass_;
  int* calls_;
};

TEST(Composite, ShortCircuitsOnFirstFailure) {
  Diamond d;
  int first_calls = 0, second_calls = 0;
  CompositeChecker composite;
  composite.add(std::make_unique<FlagChecker>(false, &first_calls));
  composite.add(std::make_unique<FlagChecker>(true, &second_calls));
  EXPECT_FALSE(composite.check(d.topo).satisfied);
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 0);
}

TEST(Composite, CountsChecks) {
  Diamond d;
  CompositeChecker composite;
  composite.check(d.topo);
  composite.check(d.topo);
  EXPECT_EQ(composite.checks_performed(), 2);
  composite.reset_counter();
  EXPECT_EQ(composite.checks_performed(), 0);
}

TEST(Composite, EmptyCompositeAlwaysSatisfied) {
  Diamond d;
  CompositeChecker composite;
  EXPECT_TRUE(composite.check(d.topo).satisfied);
}

}  // namespace
}  // namespace klotski::constraints
