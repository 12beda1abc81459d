#include <gtest/gtest.h>

#include "../test_helpers.h"
#include "klotski/baselines/brute_force_planner.h"
#include "klotski/core/astar_planner.h"
#include "klotski/core/dp_planner.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"

namespace klotski::core {
namespace {

using klotski::testing::small_dmag_case;
using klotski::testing::small_hgrid_case;
using klotski::testing::small_ssw_case;

struct PlannerCase {
  const char* task;
  double theta;
  double alpha;
};

std::string case_name(const ::testing::TestParamInfo<PlannerCase>& info) {
  std::string name = info.param.task;
  name += "_theta" + std::to_string(static_cast<int>(info.param.theta * 100));
  name += "_alpha" + std::to_string(static_cast<int>(info.param.alpha * 10));
  return name;
}

migration::MigrationCase build_case(const std::string& kind) {
  if (kind == "hgrid") return small_hgrid_case();
  if (kind == "ssw") return small_ssw_case();
  return small_dmag_case();
}

class PlannerOptimality : public ::testing::TestWithParam<PlannerCase> {};

// The core claim of Figures 8(a)/9(a): Klotski-A* and Klotski-DP always
// find the optimal plan, verified here against the brute-force oracle on
// small tasks, across migration types, utilization bounds, and alphas.
TEST_P(PlannerOptimality, AStarAndDpMatchBruteForce) {
  const PlannerCase param = GetParam();
  migration::MigrationCase mig = build_case(param.task);
  migration::MigrationTask& task = mig.task;

  pipeline::CheckerConfig config;
  config.demand.max_utilization = param.theta;
  PlannerOptions options;
  options.alpha = param.alpha;

  auto run = [&](const char* name) {
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(task, config);
    return pipeline::make_planner(name)->plan(task, *bundle.checker,
                                              options);
  };

  const Plan oracle = run("brute");
  const Plan astar = run("astar");
  const Plan dp = run("dp");

  ASSERT_EQ(astar.found, oracle.found) << astar.failure;
  ASSERT_EQ(dp.found, oracle.found) << dp.failure;
  if (!oracle.found) return;

  EXPECT_DOUBLE_EQ(astar.cost, oracle.cost);
  EXPECT_DOUBLE_EQ(dp.cost, oracle.cost);

  // Reported cost must match an independent recomputation from the actions.
  EXPECT_DOUBLE_EQ(astar.cost, astar.recompute_cost(param.alpha));
  EXPECT_DOUBLE_EQ(dp.cost, dp.recompute_cost(param.alpha));

  // And every plan must survive the independent audit.
  for (const Plan* plan : {&astar, &dp, &oracle}) {
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(task, config);
    const pipeline::AuditReport report =
        pipeline::audit_plan(task, *bundle.checker, *plan);
    EXPECT_TRUE(report.ok) << plan->planner << ": "
                           << (report.issues.empty() ? ""
                                                     : report.issues[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerOptimality,
    ::testing::Values(PlannerCase{"hgrid", 0.75, 0.0},
                      PlannerCase{"hgrid", 0.65, 0.0},
                      PlannerCase{"hgrid", 0.95, 0.0},
                      PlannerCase{"hgrid", 0.75, 0.5},
                      PlannerCase{"hgrid", 0.75, 1.0},
                      PlannerCase{"ssw", 0.75, 0.0},
                      PlannerCase{"ssw", 0.55, 0.0},
                      PlannerCase{"ssw", 0.75, 0.3},
                      PlannerCase{"dmag", 0.75, 0.0},
                      PlannerCase{"dmag", 0.85, 0.2}),
    case_name);

// ---------------------------------------------------------------------------
// Ablation variants stay optimal.

TEST(PlannerVariants, UniformCostSearchIsOptimalButSlower) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;

  PlannerOptions with_h;
  const Plan astar = [&] {
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    return AStarPlanner().plan(task, *bundle.checker, with_h);
  }();

  PlannerOptions without_h;
  without_h.use_astar_heuristic = false;
  const Plan ucs = [&] {
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    return AStarPlanner().plan(task, *bundle.checker, without_h);
  }();

  ASSERT_TRUE(astar.found);
  ASSERT_TRUE(ucs.found);
  EXPECT_DOUBLE_EQ(astar.cost, ucs.cost);
  EXPECT_LE(astar.stats.visited_states, ucs.stats.visited_states);
}

TEST(PlannerVariants, NoCacheIsOptimalWithMoreChecks) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;

  PlannerOptions cached;
  const Plan with_cache = [&] {
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    return AStarPlanner().plan(task, *bundle.checker, cached);
  }();

  PlannerOptions uncached;
  uncached.use_satisfiability_cache = false;
  const Plan without_cache = [&] {
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    return AStarPlanner().plan(task, *bundle.checker, uncached);
  }();

  ASSERT_TRUE(with_cache.found);
  ASSERT_TRUE(without_cache.found);
  EXPECT_DOUBLE_EQ(with_cache.cost, without_cache.cost);
  EXPECT_GE(without_cache.stats.sat_checks, with_cache.stats.sat_checks);
  EXPECT_EQ(without_cache.stats.cache_hits, 0);
}

TEST(PlannerVariants, DpLatticeIsItsOwnVerdictCache) {
  // DP keeps every lattice cell's verdict in its safe[] table, so the §4.2
  // switch changes nothing there: the same plan, the same counters, and no
  // cache hit either way.
  struct Case {
    topo::TopologyFamily family;
    topo::PresetId id;
    const char* name;
  };
  for (const Case& c : {Case{topo::TopologyFamily::kClos, topo::PresetId::kA,
                             "clos A"},
                        Case{topo::TopologyFamily::kClos, topo::PresetId::kB,
                             "clos B"},
                        Case{topo::TopologyFamily::kClos, topo::PresetId::kC,
                             "clos C"},
                        Case{topo::TopologyFamily::kFlat, topo::PresetId::kA,
                             "flat A"},
                        Case{topo::TopologyFamily::kReconf,
                             topo::PresetId::kA, "reconf A"}}) {
    SCOPED_TRACE(c.name);
    const auto run = [&](bool use_cache) {
      migration::MigrationCase mig = pipeline::build_family_experiment(
          c.family, c.id, topo::PresetScale::kReduced);
      pipeline::CheckerBundle bundle =
          pipeline::make_standard_checker(mig.task, {});
      PlannerOptions options;
      options.use_satisfiability_cache = use_cache;
      return DpPlanner().plan(mig.task, *bundle.checker, options);
    };
    const Plan on = run(true);
    const Plan off = run(false);
    ASSERT_TRUE(on.found) << on.failure;
    ASSERT_TRUE(off.found) << off.failure;
    EXPECT_EQ(on.actions, off.actions);
    EXPECT_EQ(on.cost, off.cost);
    EXPECT_EQ(on.stats.visited_states, off.stats.visited_states);
    EXPECT_EQ(on.stats.generated_states, off.stats.generated_states);
    EXPECT_EQ(on.stats.sat_checks, off.stats.sat_checks);
    EXPECT_EQ(on.stats.cache_hits, off.stats.cache_hits);
    EXPECT_EQ(on.stats.evaluations, off.stats.evaluations);
    EXPECT_EQ(on.stats.delta_applies, off.stats.delta_applies);
    EXPECT_EQ(on.stats.full_replays, off.stats.full_replays);
    EXPECT_EQ(on.stats.frontier_peak, off.stats.frontier_peak);
    EXPECT_EQ(on.stats.cache_hits, 0);
    EXPECT_EQ(on.stats.evaluations, on.stats.sat_checks);
  }
}

// ---------------------------------------------------------------------------
// Monotonicity properties of the optimum (Figures 12 and 13).

TEST(PlannerProperties, OptimalCostNonIncreasingInTheta) {
  migration::MigrationCase mig = small_ssw_case();
  migration::MigrationTask& task = mig.task;
  double previous = 1e18;
  for (const double theta : {0.55, 0.65, 0.75, 0.85, 0.95}) {
    pipeline::CheckerConfig config;
    config.demand.max_utilization = theta;
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(task, config);
    const Plan plan = AStarPlanner().plan(task, *bundle.checker, {});
    ASSERT_TRUE(plan.found) << "theta=" << theta << ": " << plan.failure;
    EXPECT_LE(plan.cost, previous) << "theta=" << theta;
    previous = plan.cost;
  }
}

TEST(PlannerProperties, OptimalCostNonDecreasingInAlpha) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  double previous = 0.0;
  for (const double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    PlannerOptions options;
    options.alpha = alpha;
    pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
    const Plan plan = AStarPlanner().plan(task, *bundle.checker, options);
    ASSERT_TRUE(plan.found);
    EXPECT_GE(plan.cost, previous - 1e-12) << "alpha=" << alpha;
    previous = plan.cost;
  }
}

TEST(PlannerProperties, AlphaOneCostEqualsActionCount) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  PlannerOptions options;
  options.alpha = 1.0;
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  const Plan plan = AStarPlanner().plan(task, *bundle.checker, options);
  ASSERT_TRUE(plan.found);
  EXPECT_DOUBLE_EQ(plan.cost, task.total_actions());
}

// ---------------------------------------------------------------------------
// Edge cases and failure modes.

TEST(PlannerEdgeCases, InfeasibleOriginalTopologyReported) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  pipeline::CheckerConfig config;
  config.demand.max_utilization = 0.01;  // everything is over this bound
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(task, config);
  for (const char* name : {"astar", "dp", "brute"}) {
    const Plan plan =
        pipeline::make_planner(name)->plan(task, *bundle.checker, {});
    EXPECT_FALSE(plan.found) << name;
    EXPECT_NE(plan.failure.find("original topology"), std::string::npos)
        << name;
  }
}

TEST(PlannerEdgeCases, EmptyTaskIsTriviallyPlanned) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  for (auto& blocks : task.blocks) blocks.clear();
  task.target_state = task.original_state;
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  for (const char* name : {"astar", "dp"}) {
    const Plan plan =
        pipeline::make_planner(name)->plan(task, *bundle.checker, {});
    EXPECT_TRUE(plan.found) << name;
    EXPECT_DOUBLE_EQ(plan.cost, 0.0);
    EXPECT_TRUE(plan.actions.empty());
  }
}

TEST(PlannerEdgeCases, DeadlineProducesTimeoutFailure) {
  migration::MigrationCase mig = migration::build_hgrid_migration(
      topo::preset_params(topo::PresetId::kC, topo::PresetScale::kReduced),
      {});
  migration::MigrationTask& task = mig.task;
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  PlannerOptions options;
  options.deadline_seconds = 1e-9;
  const Plan plan = DpPlanner().plan(task, *bundle.checker, options);
  EXPECT_FALSE(plan.found);
  // Either the origin check or the timeout fires first; both are failures
  // with a reason.
  EXPECT_FALSE(plan.failure.empty());
}

TEST(PlannerEdgeCases, TopologyRestoredAfterPlanning) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  const topo::TopologyState before = topo::TopologyState::capture(*task.topo);
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  AStarPlanner().plan(task, *bundle.checker, {});
  EXPECT_TRUE(before == topo::TopologyState::capture(*task.topo));
}

TEST(PlannerEdgeCases, DpRefusesExplosiveStateSpaces) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(task, {});
  PlannerOptions options;
  options.max_states = 4;  // absurdly small
  const Plan plan = DpPlanner().plan(task, *bundle.checker, options);
  EXPECT_FALSE(plan.found);
  EXPECT_NE(plan.failure.find("too large"), std::string::npos);
}

TEST(PlannerEdgeCases, BruteForceRefusesLargeTasks) {
  migration::MigrationCase mig = migration::build_hgrid_migration(
      topo::preset_params(topo::PresetId::kC, topo::PresetScale::kReduced),
      {});
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  const Plan plan =
      baselines::BruteForcePlanner().plan(mig.task, *bundle.checker, {});
  EXPECT_FALSE(plan.found);
  EXPECT_NE(plan.failure.find("too large"), std::string::npos);
}


TEST(PlannerTrace, RecordsExpansionsAndFinalPath) {
  migration::MigrationCase mig = small_hgrid_case();
  PlannerOptions options;
  options.record_trace = true;
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(mig.task, {});
  const Plan plan = AStarPlanner().plan(mig.task, *bundle.checker, options);
  ASSERT_TRUE(plan.found);
  EXPECT_EQ(static_cast<long long>(plan.trace.size()),
            plan.stats.visited_states);

  // The final path has exactly |actions| + 1 entries (origin .. target),
  // starts at the origin, and its g values are non-decreasing.
  std::size_t on_path = 0;
  double previous_g = -1.0;
  for (const TraceEntry& entry : plan.trace) {
    if (!entry.on_final_path) continue;
    ++on_path;
    EXPECT_GE(entry.g, previous_g);
    previous_g = entry.g;
    // f never exceeds the optimal cost along the returned path
    // (admissibility witnessed by the trace).
    EXPECT_LE(entry.g + entry.h, plan.cost + 1e-9);
  }
  EXPECT_EQ(on_path, plan.actions.size() + 1);
  EXPECT_EQ(total_actions(plan.trace.front().counts), 0);
}

TEST(PlannerTrace, OffByDefault) {
  migration::MigrationCase mig = small_hgrid_case();
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(mig.task, {});
  const Plan plan = AStarPlanner().plan(mig.task, *bundle.checker, {});
  EXPECT_TRUE(plan.trace.empty());
}

// ---------------------------------------------------------------------------
// Plan structure.

TEST(PlanStructure, PhasesGroupConsecutiveTypes) {
  Plan plan;
  plan.found = true;
  plan.actions = {{0, 0}, {0, 1}, {1, 0}, {0, 2}, {0, 3}};
  const std::vector<Phase> phases = plan.phases();
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].type, 0);
  EXPECT_EQ(phases[0].block_indices.size(), 2u);
  EXPECT_EQ(phases[1].type, 1);
  EXPECT_EQ(phases[2].block_indices.size(), 2u);
}

TEST(PlanStructure, RecomputeCostMatchesModel) {
  Plan plan;
  plan.actions = {{0, 0}, {0, 1}, {1, 0}};
  EXPECT_DOUBLE_EQ(plan.recompute_cost(0.0), 2.0);
  EXPECT_DOUBLE_EQ(plan.recompute_cost(1.0), 3.0);
  EXPECT_DOUBLE_EQ(plan.recompute_cost(0.5), 2.5);
}

}  // namespace
}  // namespace klotski::core
