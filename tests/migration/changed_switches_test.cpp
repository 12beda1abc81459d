// Randomized suite for migration::changed_switches (DESIGN.md §11): across
// hundreds of seeded topology mutations — element state flips, capacity
// edits, bursts of flips and full state restores — the diff of every two
// consecutive compute_symmetry() partitions must equal the brute-force diff
// of class membership sets. The warm-repair gate declines a plan suffix on
// exactly this diff.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "klotski/migration/symmetry.h"
#include "klotski/topo/families.h"
#include "klotski/topo/presets.h"

namespace klotski::migration {
namespace {

/// Brute force: s changed iff the set of switches sharing s's class differs
/// between the two partitions.
std::vector<topo::SwitchId> changed_by_membership(
    const SymmetryPartition& before, const SymmetryPartition& after) {
  std::vector<topo::SwitchId> changed;
  for (std::size_t s = 0; s < after.class_of.size(); ++s) {
    const auto& now =
        after.blocks[static_cast<std::size_t>(after.class_of[s])];
    if (s >= before.class_of.size()) {
      changed.push_back(static_cast<topo::SwitchId>(s));
      continue;
    }
    const auto& then =
        before.blocks[static_cast<std::size_t>(before.class_of[s])];
    if (now != then) changed.push_back(static_cast<topo::SwitchId>(s));
  }
  return changed;
}

/// The randomized mutation property: across `mutations` seeded mutations of
/// every flavor, changed_switches() of consecutive partitions must equal
/// the brute-force membership diff. Shared by the per-family suites below.
/// `require_moves` demands that some diff lists a switch; the flat fabric's
/// partition is near-singleton, and no mutation there moves a class.
void run_randomized_mutations(topo::Region& region, std::uint64_t seed,
                              int mutations, bool require_moves) {
  topo::Topology& topo = region.topo;
  const topo::TopologyState original = topo::TopologyState::capture(topo);
  const std::size_t num_switches = topo.num_switches();
  const std::size_t num_circuits = topo.num_circuits();
  ASSERT_GT(num_switches, 0u);
  ASSERT_GT(num_circuits, 0u);

  std::mt19937_64 rng(seed);
  SymmetryPartition before = compute_symmetry(topo);
  int nonempty_diffs = 0;

  for (int mutation = 1; mutation <= mutations; ++mutation) {
    switch (rng() % 6) {
      case 0: {  // flip a switch
        const auto s = static_cast<topo::SwitchId>(rng() % num_switches);
        topo.set_switch_state(s, topo.sw(s).state == topo::ElementState::kActive
                                     ? topo::ElementState::kDrained
                                     : topo::ElementState::kActive);
        break;
      }
      case 1: {  // flip a circuit
        const auto c = static_cast<topo::CircuitId>(rng() % num_circuits);
        topo.set_circuit_state(c,
                               topo.circuit(c).state ==
                                       topo::ElementState::kActive
                                   ? topo::ElementState::kDrained
                                   : topo::ElementState::kActive);
        break;
      }
      case 2: {  // out-of-band capacity edit
        const auto c = static_cast<topo::CircuitId>(rng() % num_circuits);
        topo.circuit(c).capacity_tbps =
            topo.circuit(c).capacity_tbps > 1.0 ? 1.0 : 2.0;
        topo.bump_state_version();
        break;
      }
      case 3: {  // burst of flips
        for (int i = 0; i < 40; ++i) {
          const auto s = static_cast<topo::SwitchId>(rng() % num_switches);
          topo.set_switch_state(
              s, topo.sw(s).state == topo::ElementState::kActive
                     ? topo::ElementState::kDrained
                     : topo::ElementState::kActive);
        }
        break;
      }
      case 4: {  // restore everything (versioned bulk rewrite)
        original.restore(topo);
        break;
      }
      default:  // no change at all
        break;
    }

    const SymmetryPartition after = compute_symmetry(topo);
    const std::vector<topo::SwitchId> got = changed_switches(before, after);
    ASSERT_EQ(got, changed_by_membership(before, after))
        << "changed_switches diverged after mutation " << mutation;
    if (!got.empty()) ++nonempty_diffs;
    before = after;
  }
  if (require_moves) {
    EXPECT_GT(nonempty_diffs, 0);
  }
}

TEST(ChangedSwitches, RandomizedMutationsMatchMembershipDiff) {
  topo::Region region =
      topo::build_preset(topo::PresetId::kB, topo::PresetScale::kReduced);
  run_randomized_mutations(region, 20260807, 200, /*require_moves=*/true);
}

TEST(ChangedSwitches, RandomizedMutationsMatchMembershipDiffFlat) {
  topo::Region region = topo::build_flat(
      topo::flat_params(topo::PresetId::kB, topo::PresetScale::kReduced));
  run_randomized_mutations(region, 20260808, 200, /*require_moves=*/false);
}

TEST(ChangedSwitches, RandomizedMutationsMatchMembershipDiffReconf) {
  topo::Region region = topo::build_reconf(
      topo::reconf_params(topo::PresetId::kB, topo::PresetScale::kReduced));
  run_randomized_mutations(region, 20260809, 200, /*require_moves=*/true);
}

TEST(ChangedSwitches, DifferentSwitchCountsListEverySwitch) {
  const topo::Region a =
      topo::build_preset(topo::PresetId::kA, topo::PresetScale::kFull);
  const topo::Region b =
      topo::build_preset(topo::PresetId::kB, topo::PresetScale::kReduced);
  ASSERT_NE(a.topo.num_switches(), b.topo.num_switches());
  const SymmetryPartition after = compute_symmetry(b.topo);
  // Against an empty partition the brute force lists every switch.
  EXPECT_EQ(changed_switches(compute_symmetry(a.topo), after),
            changed_by_membership(SymmetryPartition{}, after));
}

}  // namespace
}  // namespace klotski::migration
