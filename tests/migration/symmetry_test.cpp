#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "klotski/migration/symmetry.h"
#include "klotski/topo/families.h"
#include "klotski/topo/presets.h"

namespace klotski::migration {
namespace {

using klotski::testing::Diamond;

TEST(Symmetry, DiamondMiddlesAreEquivalent) {
  Diamond d;
  const SymmetryPartition partition = compute_symmetry(d.topo);
  EXPECT_TRUE(equivalent(partition, d.m1, d.m2));
  EXPECT_FALSE(equivalent(partition, d.s, d.t));   // different roles
  EXPECT_FALSE(equivalent(partition, d.s, d.m1));
}

TEST(Symmetry, CapacityBreaksEquivalence) {
  Diamond d;
  d.topo.circuit(d.c_sm1).capacity_tbps = 2.0;
  const SymmetryPartition partition = compute_symmetry(d.topo);
  EXPECT_FALSE(equivalent(partition, d.m1, d.m2));
}

TEST(Symmetry, StateBreaksEquivalence) {
  Diamond d;
  d.topo.sw(d.m1).state = topo::ElementState::kDrained;
  const SymmetryPartition partition = compute_symmetry(d.topo);
  EXPECT_FALSE(equivalent(partition, d.m1, d.m2));
}

TEST(Symmetry, PortBudgetBreaksEquivalence) {
  Diamond d;
  d.topo.sw(d.m1).max_ports = 64;
  const SymmetryPartition partition = compute_symmetry(d.topo);
  EXPECT_FALSE(equivalent(partition, d.m1, d.m2));
}

TEST(Symmetry, RefinementPropagates) {
  // A path a - b - c - d: b and c have the same role and degree, but b's
  // neighbor a differs from c's neighbor d (different roles), so refinement
  // must separate b from c.
  topo::Topology t;
  const auto a = t.add_switch(topo::SwitchRole::kRsw, topo::Generation::kV1,
                              {}, 8, topo::ElementState::kActive, "a");
  const auto b = t.add_switch(topo::SwitchRole::kFsw, topo::Generation::kV1,
                              {}, 8, topo::ElementState::kActive, "b");
  const auto c = t.add_switch(topo::SwitchRole::kFsw, topo::Generation::kV1,
                              {}, 8, topo::ElementState::kActive, "c");
  const auto d = t.add_switch(topo::SwitchRole::kEbb, topo::Generation::kV1,
                              {}, 8, topo::ElementState::kActive, "d");
  t.add_circuit(a, b, 1.0, topo::ElementState::kActive);
  t.add_circuit(b, c, 1.0, topo::ElementState::kActive);
  t.add_circuit(c, d, 1.0, topo::ElementState::kActive);
  const SymmetryPartition partition = compute_symmetry(t);
  EXPECT_FALSE(equivalent(partition, b, c));
}

TEST(Symmetry, ClassOfCoversEverySwitch) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kB, topo::PresetScale::kFull);
  const SymmetryPartition partition = compute_symmetry(region.topo);
  ASSERT_EQ(partition.class_of.size(), region.topo.num_switches());
  std::size_t total = 0;
  for (const auto& block : partition.blocks) total += block.size();
  EXPECT_EQ(total, region.topo.num_switches());
  for (std::size_t c = 0; c < partition.blocks.size(); ++c) {
    for (const topo::SwitchId id : partition.blocks[c]) {
      EXPECT_EQ(partition.class_of[static_cast<std::size_t>(id)],
                static_cast<std::int32_t>(c));
    }
  }
}

TEST(Symmetry, PristineRegionHasLargeBlocks) {
  // Before any migration stages asymmetric hardware, the synthesized region
  // is highly symmetric: equivalent RSWs/SSWs form sizable classes.
  const topo::Region region =
      topo::build_preset(topo::PresetId::kB, topo::PresetScale::kFull);
  const SymmetryPartition partition = compute_symmetry(region.topo);
  EXPECT_GE(partition.largest_block(), 4u);
}

TEST(Symmetry, ClassesNeverMixRoleGenerationOrState) {
  // Everything a constraint can observe locally must be constant within a
  // class — otherwise treating class members as interchangeable would be
  // unsound. (Note the paper's §4.1 observation that production symmetry
  // blocks are tiny stems from organic heterogeneity our synthesizer does
  // not fully reproduce; pristine synthesized regions are *more* symmetric
  // than Meta's, see DESIGN.md.)
  migration::MigrationCase mig = klotski::testing::small_hgrid_case();
  const SymmetryPartition partition = compute_symmetry(*mig.task.topo);
  for (const auto& block : partition.blocks) {
    const topo::Switch& first = mig.task.topo->sw(block.front());
    for (const topo::SwitchId id : block) {
      const topo::Switch& s = mig.task.topo->sw(id);
      EXPECT_EQ(s.role, first.role);
      EXPECT_EQ(s.gen, first.gen);
      EXPECT_EQ(s.state, first.state);
      EXPECT_EQ(s.max_ports, first.max_ports);
    }
  }
}

TEST(Symmetry, StagedV1AndV2HardwareNeverShareAClass) {
  migration::MigrationCase mig = klotski::testing::small_hgrid_case();
  const SymmetryPartition partition = compute_symmetry(*mig.task.topo);
  for (const auto& block : partition.blocks) {
    bool has_v1 = false;
    bool has_v2 = false;
    for (const topo::SwitchId id : block) {
      (mig.task.topo->sw(id).gen == topo::Generation::kV1 ? has_v1 : has_v2) =
          true;
    }
    EXPECT_FALSE(has_v1 && has_v2);
  }
}

TEST(Symmetry, EquivalentSwitchesAreConstraintInterchangeable) {
  // Soundness: swapping the states of two equivalent switches must yield an
  // equally-feasible topology. Drain one of two equivalent middles and
  // check the worst utilization is the same either way.
  Diamond drained_m1;
  drained_m1.topo.sw(drained_m1.m1).state = topo::ElementState::kDrained;
  Diamond drained_m2;
  drained_m2.topo.sw(drained_m2.m2).state = topo::ElementState::kDrained;

  traffic::EcmpRouter r1(drained_m1.topo);
  traffic::EcmpRouter r2(drained_m2.topo);
  traffic::LoadVector l1, l2;
  ASSERT_TRUE(r1.assign(drained_m1.demand(1.0), l1));
  ASSERT_TRUE(r2.assign(drained_m2.demand(1.0), l2));
  EXPECT_DOUBLE_EQ(traffic::max_utilization(drained_m1.topo, l1),
                   traffic::max_utilization(drained_m2.topo, l2));
}

TEST(Symmetry, SizeHistogramSumsToBlockCount) {
  const topo::Region region =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  const SymmetryPartition partition = compute_symmetry(region.topo);
  std::size_t blocks = 0;
  for (const auto& [size, count] : partition.size_histogram()) {
    (void)size;
    blocks += count;
  }
  EXPECT_EQ(blocks, partition.num_blocks());
}

TEST(Symmetry, FlatIrregularityShrinksSymmetryBlocks) {
  // Flat fabrics are intentionally irregular: the extra seeded chords must
  // break the ring automorphisms, so the partition has many more classes
  // than the role-uniform Clos layers would suggest.
  const topo::Region region = topo::build_flat(
      topo::flat_params(topo::PresetId::kB, topo::PresetScale::kReduced));
  const SymmetryPartition part = compute_symmetry(region.topo);
  EXPECT_GT(part.blocks.size(), region.topo.num_switches() / 4)
      << "flat fabric collapsed into a few symmetry classes; the chord "
         "seeding no longer produces degree irregularity";
}

}  // namespace
}  // namespace klotski::migration
