#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/traffic/generator.h"
#include "klotski/util/rng.h"

namespace klotski::traffic {
namespace {

using testing::Diamond;

TEST(Ecmp, DiamondSplitsEqually) {
  Diamond d;
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  // 0.5 on each branch, in the s->t direction only.
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm1) * 2]), 0.5);
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm2) * 2]), 0.5);
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_m1t) * 2]), 0.5);
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_m1t) * 2 + 1]), 0.0);
}

TEST(Ecmp, DrainedBranchGetsNoTraffic) {
  Diamond d;
  d.topo.sw(d.m2).state = topo::ElementState::kDrained;
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm1) * 2]), 1.0);
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm2) * 2]), 0.0);
}

TEST(Ecmp, DrainedCircuitGetsNoTraffic) {
  Diamond d;
  d.topo.circuit(d.c_sm2).state = topo::ElementState::kDrained;
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm1) * 2]), 1.0);
}

TEST(Ecmp, UnreachableSourceFailsAssignment) {
  Diamond d;
  d.topo.sw(d.m1).state = topo::ElementState::kAbsent;
  d.topo.sw(d.m2).state = topo::ElementState::kAbsent;
  EcmpRouter router(d.topo);
  LoadVector loads;
  EXPECT_FALSE(router.assign(d.demand(1.0), loads));
}

TEST(Ecmp, NoActiveTargetFailsAssignment) {
  Diamond d;
  d.topo.sw(d.t).state = topo::ElementState::kDrained;
  EcmpRouter router(d.topo);
  LoadVector loads;
  EXPECT_FALSE(router.assign(d.demand(1.0), loads));
}

TEST(Ecmp, InactiveSourceIsSkipped) {
  Diamond d;
  Demand demand = d.demand(1.0);
  demand.sources = {d.s, d.m1};  // m1 is also a source
  d.topo.sw(d.s).state = topo::ElementState::kDrained;
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(demand, loads));
  // All volume is injected at m1 now.
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_m1t) * 2]), 1.0);
}

TEST(Ecmp, AllSourcesInactiveIsVacuouslySatisfied) {
  Diamond d;
  d.topo.sw(d.s).state = topo::ElementState::kAbsent;
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_m1t) * 2]), 0.0);
}

TEST(Ecmp, SourceAtTargetAbsorbedImmediately) {
  Diamond d;
  Demand demand = d.demand(1.0);
  demand.sources = {d.t};
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(demand, loads));
  for (const Load load : loads) EXPECT_EQ(load, 0);
}

TEST(Ecmp, MultipleAssignsAccumulate) {
  Diamond d;
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(d.c_sm1) * 2]), 1.0);
}

TEST(Ecmp, ShortestPathOnly) {
  // s - a - t plus a longer s - b - c - t detour: ECMP must use only the
  // 2-hop path.
  using topo::ElementState;
  using topo::Generation;
  using topo::SwitchRole;
  topo::Topology t;
  const auto s = t.add_switch(SwitchRole::kRsw, Generation::kV1, {}, 8,
                              ElementState::kActive, "s");
  const auto a = t.add_switch(SwitchRole::kFsw, Generation::kV1, {}, 8,
                              ElementState::kActive, "a");
  const auto b = t.add_switch(SwitchRole::kFsw, Generation::kV1, {}, 8,
                              ElementState::kActive, "b");
  const auto c = t.add_switch(SwitchRole::kFsw, Generation::kV1, {}, 8,
                              ElementState::kActive, "c");
  const auto dst = t.add_switch(SwitchRole::kEbb, Generation::kV1, {}, 8,
                                ElementState::kActive, "t");
  t.add_circuit(s, a, 1.0, ElementState::kActive);
  const auto c_at = t.add_circuit(a, dst, 1.0, ElementState::kActive);
  const auto c_sb = t.add_circuit(s, b, 1.0, ElementState::kActive);
  t.add_circuit(b, c, 1.0, ElementState::kActive);
  t.add_circuit(c, dst, 1.0, ElementState::kActive);

  Demand demand;
  demand.sources = {s};
  demand.targets = {dst};
  demand.volume_tbps = 1.0;

  EcmpRouter router(t);
  LoadVector loads;
  ASSERT_TRUE(router.assign(demand, loads));
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(c_at) * 2]), 1.0);
  EXPECT_DOUBLE_EQ(to_tbps(loads[static_cast<std::size_t>(c_sb) * 2]), 0.0);
}

TEST(Ecmp, WorstCircuitReportsHighestUtilization) {
  Diamond d;
  d.topo.circuit(d.c_m2t).capacity_tbps = 0.25;  // 0.5 load -> 200%
  EcmpRouter router(d.topo);
  LoadVector loads;
  ASSERT_TRUE(router.assign(d.demand(1.0), loads));
  const WorstCircuit worst = worst_circuit(d.topo, loads);
  EXPECT_EQ(worst.circuit, d.c_m2t);
  EXPECT_DOUBLE_EQ(worst.utilization, 2.0);
  EXPECT_DOUBLE_EQ(max_utilization(d.topo, loads), 2.0);
}

TEST(Ecmp, EmptyLoadsHaveZeroUtilization) {
  Diamond d;
  const LoadVector loads(d.topo.num_circuits() * 2, 0);
  EXPECT_DOUBLE_EQ(max_utilization(d.topo, loads), 0.0);
  EXPECT_EQ(worst_circuit(d.topo, loads).circuit, topo::kInvalidCircuit);
}

// ---------------------------------------------------------------------------
// Property-based: flow conservation on synthesized regions under random
// drain patterns.

// A static table, not stack temporaries: gtest prints the case's raw bytes
// into the ctest name, and static storage zeroes the padding after
// `preset` that the name would otherwise read as stack garbage.
struct ConservationCase {
  topo::PresetId preset;
  std::uint64_t seed;
};

class EcmpConservation
    : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(EcmpConservation, InjectedVolumeIsAbsorbed) {
  const auto [preset, seed] = GetParam();
  topo::Region region = topo::build_preset(preset,
                                           topo::PresetScale::kReduced);
  util::Rng rng(seed);

  // Randomly drain ~15% of the circuits.
  for (std::size_t i = 0; i < region.topo.num_circuits(); ++i) {
    if (rng.chance(0.15)) {
      region.topo.circuit(static_cast<topo::CircuitId>(i)).state =
          topo::ElementState::kDrained;
    }
  }

  const DemandSet demands = generate_demands(region);
  EcmpRouter router(region.topo);
  for (const Demand& demand : demands) {
    LoadVector loads;
    if (!router.assign(demand, loads)) continue;  // disconnected is OK here

    // Non-negativity.
    for (const Load load : loads) EXPECT_GE(load, 0);

    // Conservation: total volume leaving the sources equals the demand
    // volume (if any source is active), and equals the volume arriving at
    // the targets.
    std::vector<double> net(region.topo.num_switches(), 0.0);
    for (const topo::Circuit& c : region.topo.circuits()) {
      const double ab = to_tbps(loads[static_cast<std::size_t>(c.id) * 2]);
      const double ba =
          to_tbps(loads[static_cast<std::size_t>(c.id) * 2 + 1]);
      net[static_cast<std::size_t>(c.a)] += ab - ba;
      net[static_cast<std::size_t>(c.b)] += ba - ab;
    }
    double out_of_sources = 0.0;
    std::size_t active_sources = 0;
    for (const topo::SwitchId s : demand.sources) {
      out_of_sources += net[static_cast<std::size_t>(s)];
      if (region.topo.sw(s).active()) ++active_sources;
    }
    if (active_sources > 0) {
      EXPECT_NEAR(out_of_sources, demand.volume_tbps, 1e-6) << demand.name;
    }
  }
}

constexpr ConservationCase kConservationCases[] = {
    {topo::PresetId::kA, 1}, {topo::PresetId::kA, 2}, {topo::PresetId::kB, 3},
    {topo::PresetId::kB, 4}, {topo::PresetId::kC, 5},
};

INSTANTIATE_TEST_SUITE_P(
    Seeds, EcmpConservation, ::testing::ValuesIn(kConservationCases),
    [](const auto& info) {
      return to_string(info.param.preset) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace klotski::traffic
