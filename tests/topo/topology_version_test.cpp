#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "klotski/topo/topology.h"

namespace klotski::topo {
namespace {

using klotski::testing::Diamond;

TEST(TopologyVersion, NoOpStateWritesDoNotBump) {
  Diamond d;
  const std::uint64_t v = d.topo.state_version();
  d.topo.set_switch_state(d.m1, d.topo.sw(d.m1).state);
  d.topo.set_circuit_state(d.c_sm1, d.topo.circuit(d.c_sm1).state);
  EXPECT_EQ(d.topo.state_version(), v);
}

TEST(TopologyVersion, StructuralGrowthInvalidatesCoverage) {
  Diamond d;
  const std::uint64_t v0 = d.topo.state_version();
  d.topo.add_circuit(d.m1, d.m2, 1.0, ElementState::kActive);
  EXPECT_GT(d.topo.state_version(), v0);
}

TEST(TopologyVersion, RestoreOnlyBumpsForRealChanges) {
  Diamond d;
  const TopologyState snapshot = TopologyState::capture(d.topo);
  const std::uint64_t v0 = d.topo.state_version();
  snapshot.restore(d.topo);  // identical state: no version movement
  EXPECT_EQ(d.topo.state_version(), v0);

  d.topo.set_switch_state(d.m1, ElementState::kDrained);
  d.topo.set_circuit_state(d.c_sm2, ElementState::kAbsent);
  const std::uint64_t v1 = d.topo.state_version();
  snapshot.restore(d.topo);
  // Exactly the two divergent elements change back.
  EXPECT_EQ(d.topo.state_version(), v1 + 2);
}

}  // namespace
}  // namespace klotski::topo
