// Randomized equivalence suite for the fabric ECMP router.
//
// A long-lived router keeps its liveness words between calls, keyed on the
// topology's state version, and promises results equal to a from-scratch
// evaluation: the same fixed-point integers, compared with ==, never within
// a tolerance. So these tests guard the state-version contract — every
// writer of an element state must bump the version — as well as the
// router. They drive a Table-3 preset through hundreds of random drain /
// undrain / add / remove mutations and hold it to that promise:
//  * after every mutation, the long-lived router must produce exactly the
//    load vector of a freshly constructed router;
//  * a demand set edited in place between calls routes like a fresh set:
//    the router keeps nothing of the demands it routed;
//  * group_recomputes counts every routed group, up to and including the
//    first failing one.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "klotski/pipeline/experiments.h"
#include "klotski/topo/topology.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/util/rng.h"

namespace klotski {
namespace {

constexpr int kSteps = 200;

/// One random element-state mutation through the versioned setters, plus an
/// occasional bump_state_version() with no state change.
void mutate(topo::Topology& topo, util::Rng& rng, int step) {
  const topo::ElementState states[] = {topo::ElementState::kActive,
                                       topo::ElementState::kDrained,
                                       topo::ElementState::kAbsent};
  const auto state = states[rng.uniform_int(0, 2)];
  if (rng.uniform_int(0, 1) == 0) {
    const auto s = static_cast<topo::SwitchId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_switches()) - 1));
    topo.set_switch_state(s, state);
  } else {
    const auto c = static_cast<topo::CircuitId>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.num_circuits()) - 1));
    topo.set_circuit_state(c, state);
  }
  if (step % 20 == 19) topo.bump_state_version();
}

struct AssignResult {
  bool ok = false;
  std::string failed;
  traffic::LoadVector loads;
};

AssignResult run_assign(traffic::EcmpRouter& router,
                        const traffic::DemandSet& demands) {
  AssignResult r;
  r.ok = router.assign_all(demands, r.loads, &r.failed);
  return r;
}

/// Each demand's target-set group: groups are numbered in first-occurrence
/// order, the order assign_all routes and sums them in.
std::vector<std::size_t> group_of(const traffic::DemandSet& demands) {
  std::vector<const std::vector<topo::SwitchId>*> sets;
  std::vector<std::size_t> group;
  for (const traffic::Demand& d : demands) {
    std::size_t g = 0;
    while (g < sets.size() && *sets[g] != d.targets) ++g;
    if (g == sets.size()) sets.push_back(&d.targets);
    group.push_back(g);
  }
  return group;
}

std::size_t num_groups(const std::vector<std::size_t>& group) {
  return group.empty() ? 0 : *std::max_element(group.begin(), group.end()) + 1;
}

/// Drives a migration case through kSteps random mutations, holding the
/// long-lived router to bit-identical loads against a from-scratch router
/// after every step. Shared by the per-family tests below.
void run_fresh_router_equivalence(migration::MigrationCase mig,
                                  std::uint64_t seed) {
  topo::Topology& topo = *mig.task.topo;
  const traffic::DemandSet& demands = mig.task.demands;
  ASSERT_FALSE(demands.empty());

  traffic::EcmpRouter incremental(topo);

  util::Rng rng(seed);
  for (int step = 0; step < kSteps; ++step) {
    mutate(topo, rng, step);

    const AssignResult got = run_assign(incremental, demands);
    // The reference has no history: every group is computed from scratch.
    traffic::EcmpRouter fresh(topo);
    const AssignResult want = run_assign(fresh, demands);

    ASSERT_EQ(want.ok, got.ok) << "step " << step;
    if (!want.ok) {
      EXPECT_EQ(want.failed, got.failed) << "step " << step;
      continue;
    }
    ASSERT_EQ(want.loads.size(), got.loads.size());
    for (std::size_t i = 0; i < want.loads.size(); ++i) {
      // EXPECT_EQ, not NEAR: only the liveness words carry over between
      // calls, and integer loads do not depend on summation order.
      ASSERT_EQ(want.loads[i], got.loads[i])
          << "step " << step << " slot " << i;
    }
  }
}

TEST(EcmpEquivalence, RandomizedMutationsMatchFreshRouter) {
  run_fresh_router_equivalence(
      pipeline::build_experiment(pipeline::ExperimentId::kB,
                                 topo::PresetScale::kReduced),
      20260806);
}

TEST(EcmpEquivalence, RandomizedMutationsMatchFreshRouterFlat) {
  run_fresh_router_equivalence(
      pipeline::build_family_experiment(topo::TopologyFamily::kFlat,
                                        topo::PresetId::kB,
                                        topo::PresetScale::kReduced),
      20260810);
}

TEST(EcmpEquivalence, RandomizedMutationsMatchFreshRouterReconf) {
  run_fresh_router_equivalence(
      pipeline::build_family_experiment(topo::TopologyFamily::kReconf,
                                        topo::PresetId::kB,
                                        topo::PresetScale::kReduced),
      20260811);
}

// Editing the routed demand set in place — same object, same size — must
// route exactly like a fresh router: nothing about the demands may outlive
// the call that routed them, or a theta check would pass on stale loads.
TEST(EcmpEquivalence, InPlaceDemandEditsMatchAFreshRouter) {
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kB, topo::PresetScale::kReduced);
  topo::Topology& topo = *mig.task.topo;
  traffic::DemandSet demands = mig.task.demands;
  const std::vector<std::size_t> group = group_of(demands);
  ASSERT_GE(num_groups(group), 2u);

  traffic::EcmpRouter router(topo);
  const auto route_like_fresh = [&](const char* what) {
    AssignResult got = run_assign(router, demands);
    traffic::EcmpRouter fresh(topo);
    const AssignResult want = run_assign(fresh, demands);
    EXPECT_EQ(want.ok, got.ok) << what;
    EXPECT_EQ(want.failed, got.failed) << what;
    EXPECT_TRUE(want.loads == got.loads) << what;
    return got;
  };

  const AssignResult before = route_like_fresh("as built");
  ASSERT_TRUE(before.ok);

  for (traffic::Demand& d : demands) d.volume_tbps *= 2.0;
  const AssignResult doubled = route_like_fresh("volumes doubled in place");
  ASSERT_TRUE(doubled.ok);
  // Loads scale with the volumes up to share rounding: ceil(2x) <= 2 ceil(x)
  // at every rounding, so no doubled load exceeds twice the old one.
  for (std::size_t i = 0; i < before.loads.size(); ++i) {
    ASSERT_LE(doubled.loads[i], 2 * before.loads[i]) << "slot " << i;
  }
  EXPECT_NEAR(2.0 * traffic::max_utilization(topo, before.loads),
              traffic::max_utilization(topo, doubled.loads), 1e-12);

  // Move the first demand into the next group's target set: the grouping
  // itself changes under the same object.
  const auto other = std::find(group.begin(), group.end(), group[0] + 1);
  demands[0].targets =
      demands[static_cast<std::size_t>(other - group.begin())].targets;
  route_like_fresh("targets moved in place");
}

// group_recomputes() counts every group of every call: perfbench reads it
// as the group count after one origin check, and as routing work per plan.
// A failing call counts the groups up to and including the first failing
// one.
TEST(EcmpEquivalence, GroupRecomputesCountEveryGroupOfEveryCall) {
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kB, topo::PresetScale::kReduced);
  topo::Topology& topo = *mig.task.topo;
  const traffic::DemandSet& demands = mig.task.demands;
  const std::vector<std::size_t> group = group_of(demands);
  const auto groups = static_cast<long long>(num_groups(group));
  ASSERT_GE(groups, 2);

  // An inactive switch as a group's only target makes exactly that group
  // unroutable, without touching the topology the other groups route over.
  topo::SwitchId inactive = topo::kInvalidSwitch;
  for (const topo::Switch& s : topo.switches()) {
    if (!s.active()) {
      inactive = s.id;
      break;
    }
  }
  ASSERT_NE(topo::kInvalidSwitch, inactive);

  traffic::EcmpRouter router(topo);
  for (long long k = 1; k <= 3; ++k) {
    ASSERT_TRUE(run_assign(router, demands).ok);
    EXPECT_EQ(k * groups, router.group_recomputes()) << "call " << k;
  }
  for (long long g = 0; g < groups; ++g) {
    traffic::DemandSet broken = demands;
    std::string first;
    for (std::size_t i = 0; i < broken.size(); ++i) {
      if (group[i] != static_cast<std::size_t>(g)) continue;
      if (first.empty()) first = broken[i].name;
      broken[i].targets = {inactive};
    }
    const long long before = router.group_recomputes();
    const AssignResult r = run_assign(router, broken);
    EXPECT_FALSE(r.ok) << "group " << g;
    EXPECT_EQ(first, r.failed) << "group " << g;
    EXPECT_EQ(before + g + 1, router.group_recomputes()) << "group " << g;
  }
}

}  // namespace
}  // namespace klotski
