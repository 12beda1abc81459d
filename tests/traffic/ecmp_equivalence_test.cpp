// Randomized equivalence suite for the flat-path ECMP engine.
//
// A long-lived router (epoch-stamped scratch, word-packed liveness
// refreshed by journal replay, kept per-group DAGs) promises results equal
// to a from-scratch evaluation: the same fixed-point integers, compared
// with ==, never within a tolerance. These tests drive a Table-3 preset
// through hundreds of random drain / undrain / add / remove mutations and
// hold it to that promise:
//  * after every mutation, the long-lived router must produce exactly the
//    load vector of a freshly constructed router;
//  * a demand set edited in place between calls routes like a fresh set:
//    of the demands the router keeps only each group's target set, as the
//    key of the group's DAG;
//  * a kept DAG is reused exactly while the liveness version and the
//    group's target set hold (router.dag_reuses counts the hits), and
//    yields the loads, touched list and verdict of a fresh BFS;
//  * group_recomputes counts every routed group, up to and including the
//    first failing one.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "klotski/obs/metrics.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/topo/topology.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/util/rng.h"

namespace klotski {
namespace {

constexpr int kSteps = 200;

/// One random element-state mutation through the versioned setters, plus an
/// occasional bump_state_version() to force the journal-floor (full rescan)
/// fallback paths.
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

    // The DemandChecker scans only the touched list, in order: after a
    // successful assign_all it must be exactly the ascending list of
    // circuits with a non-zero load in either direction.
    std::vector<topo::CircuitId> loaded;
    for (std::size_t c = 0; c < got.loads.size() / 2; ++c) {
      if (got.loads[c * 2] != 0 || got.loads[c * 2 + 1] != 0) {
        loaded.push_back(static_cast<topo::CircuitId>(c));
      }
    }
    EXPECT_EQ(incremental.touched_circuits(), loaded) << "step " << step;
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
// route exactly like a fresh router: nothing about the demands but each
// group's target set (the key of its kept DAG, compared by value) may
// outlive the call that routed them, or a theta check would pass on stale
// loads.
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

/// Routes `demands` on the long-lived `router` and on a fresh serial router
/// over the same topology: loads, touched list, verdict and failing demand
/// must agree bit for bit. Returns how many groups of the `router` call
/// reused their kept DAG (the router.dag_reuses delta; metrics must be on).
long long expect_matches_fresh(traffic::EcmpRouter& router,
                               const topo::Topology& topo,
                               const traffic::DemandSet& demands,
                               const std::string& what) {
  obs::Counter& reuses = obs::Registry::global().counter("router.dag_reuses");
  const long long before = reuses.value();
  const AssignResult got = run_assign(router, demands);
  const long long reused = reuses.value() - before;
  traffic::EcmpRouter fresh(topo);
  const AssignResult want = run_assign(fresh, demands);
  EXPECT_EQ(want.ok, got.ok) << what;
  EXPECT_EQ(want.failed, got.failed) << what;
  EXPECT_TRUE(want.loads == got.loads) << what;
  EXPECT_EQ(fresh.touched_circuits(), router.touched_circuits()) << what;
  return reused;
}

/// Turns the metrics registry on for one test (dag_reuses is an obs
/// counter) and back off after it.
class MetricsOn {
 public:
  MetricsOn() { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(false); }
};

// Random topology flips interleaved with in-place volume rescales: a
// rescale keeps every DAG (same liveness version, same target sets), a
// flip invalidates them all, and after each step the long-lived router
// must match a fresh one exactly.
TEST(EcmpEquivalence, KeptDagsMatchAFreshRouterUnderVolumeAndTopologyEdits) {
  MetricsOn metrics;
  migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kB, topo::PresetScale::kReduced);
  topo::Topology& topo = *mig.task.topo;
  traffic::DemandSet demands = mig.task.demands;

  traffic::EcmpRouter router(topo);
  util::Rng rng(20261017);
  long long reused = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (step % 2 == 0) {
      mutate(topo, rng, step);
    } else {
      const double factor = rng.uniform_real(0.5, 1.5);
      for (traffic::Demand& d : demands) d.volume_tbps *= factor;
    }
    reused += expect_matches_fresh(router, topo, demands,
                                   "step " + std::to_string(step));
  }
  EXPECT_GT(reused, 0);
}

// The four ways a kept DAG can go stale or stay valid, each on one
// long-lived router: in-place volume edits reuse every group, a target-set
// move reroutes the groups whose target set changed index, a circuit flip
// reroutes every group, and a shrinking then growing group count reuses
// what each slot still holds.
struct KeptDagsCase {
  KeptDagsCase()
      : mig(pipeline::build_experiment(pipeline::ExperimentId::kB,
                                       topo::PresetScale::kReduced)),
        topo(*mig.task.topo),
        demands(mig.task.demands),
        router(topo),
        groups(static_cast<long long>(num_groups(group_of(demands)))) {
    // One call on the unchanged topology routes every group over its DAG.
    expect_matches_fresh(router, topo, demands, "priming call");
  }

  long long route(const traffic::DemandSet& set, const std::string& step) {
    return expect_matches_fresh(router, topo, set, step);
  }

  migration::MigrationCase mig;
  topo::Topology& topo;
  traffic::DemandSet demands;
  traffic::EcmpRouter router;
  long long groups;
};

TEST(EcmpEquivalence, KeptDagsReinjectVolumesScaledInPlace) {
  MetricsOn metrics;
  KeptDagsCase c;
  ASSERT_GE(c.groups, 2);
  for (traffic::Demand& d : c.demands) d.volume_tbps *= 1.7;
  const long long recomputes = c.router.group_recomputes();
  EXPECT_EQ(c.groups, c.route(c.demands, "volumes scaled in place"));
  // group_recomputes keeps counting routed groups, hits included.
  EXPECT_EQ(recomputes + c.groups, c.router.group_recomputes());
}

TEST(EcmpEquivalence, KeptDagsRerouteAMovedTargetSet) {
  MetricsOn metrics;
  KeptDagsCase c;
  const std::vector<std::size_t> before = group_of(c.demands);
  ASSERT_GE(c.groups, 2);
  std::vector<std::vector<topo::SwitchId>> old_sets(
      static_cast<std::size_t>(c.groups));
  for (std::size_t i = 0; i < c.demands.size(); ++i) {
    std::vector<topo::SwitchId>& set = old_sets[before[i]];
    if (set.empty()) set = c.demands[i].targets;
  }
  // Move the first demand into the next group's target set in place.
  // Slot g keeps its DAG only if group g still has the target set it had.
  const auto other = std::find(before.begin(), before.end(), before[0] + 1);
  c.demands[0].targets =
      c.demands[static_cast<std::size_t>(other - before.begin())].targets;
  const std::vector<std::size_t> after = group_of(c.demands);
  long long kept = 0;
  std::vector<bool> seen(num_groups(after), false);
  for (std::size_t i = 0; i < c.demands.size(); ++i) {
    const std::size_t g = after[i];
    if (seen[g]) continue;
    seen[g] = true;
    if (g < old_sets.size() && old_sets[g] == c.demands[i].targets) ++kept;
  }
  ASSERT_LT(kept, static_cast<long long>(num_groups(after)));
  EXPECT_EQ(kept, c.route(c.demands, "targets moved in place"));
}

TEST(EcmpEquivalence, KeptDagsRerouteAfterACircuitFlip) {
  MetricsOn metrics;
  KeptDagsCase c;
  // Drain an active circuit: the liveness version moves, so no kept DAG is
  // valid any more, whether or not the circuit lies on it.
  topo::CircuitId flipped = topo::kInvalidCircuit;
  for (const topo::Circuit& circuit : c.topo.circuits()) {
    if (circuit.state == topo::ElementState::kActive) {
      flipped = circuit.id;
      break;
    }
  }
  ASSERT_NE(topo::kInvalidCircuit, flipped);
  c.topo.set_circuit_state(flipped, topo::ElementState::kDrained);
  EXPECT_EQ(0, c.route(c.demands, "one circuit drained"));
  // The rerouted DAGs are kept in turn.
  EXPECT_EQ(c.groups, c.route(c.demands, "drained, unchanged"));
}

TEST(EcmpEquivalence, KeptDagsFollowTheGroupCountDownAndUp) {
  MetricsOn metrics;
  KeptDagsCase c;
  const std::vector<std::size_t> group = group_of(c.demands);
  const auto keep =
      static_cast<std::size_t>(std::max<long long>(2, c.groups / 2));
  ASSERT_LT(keep, static_cast<std::size_t>(c.groups));
  traffic::DemandSet fewer;
  for (std::size_t i = 0; i < c.demands.size(); ++i) {
    if (group[i] < keep) fewer.push_back(c.demands[i]);
  }
  EXPECT_EQ(static_cast<long long>(keep), c.route(fewer, "fewer groups"));
  // The slots past `keep` still hold their DAGs from the priming call.
  EXPECT_EQ(c.groups, c.route(c.demands, "all groups again"));
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
