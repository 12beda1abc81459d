#include "klotski/baselines/mrc_planner.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "klotski/core/cost_model.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/util/timer.h"

namespace klotski::baselines {

using core::Plan;
using core::PlannedAction;
using core::PlannerOptions;

bool task_changes_topology_structure(const migration::MigrationTask& task) {
  std::array<bool, topo::kNumSwitchRoles> original_roles{};
  task.original_state.restore(*task.topo);
  for (const topo::Switch& s : task.topo->switches()) {
    if (s.present()) original_roles[static_cast<int>(s.role)] = true;
  }
  task.target_state.restore(*task.topo);
  bool changes = false;
  for (const topo::Switch& s : task.topo->switches()) {
    if (s.present() && !original_roles[static_cast<int>(s.role)]) {
      changes = true;
      break;
    }
  }
  task.original_state.restore(*task.topo);
  return changes;
}

Plan MrcPlanner::plan(migration::MigrationTask& task,
                      constraints::CompositeChecker& checker,
                      const PlannerOptions& options) {
  util::Stopwatch stopwatch;
  const util::Deadline deadline =
      options.deadline_seconds > 0.0
          ? util::Deadline::after_seconds(options.deadline_seconds)
          : util::Deadline::unlimited();

  Plan plan;
  plan.planner = name();

  auto finish = [&](Plan&& p) {
    task.reset_to_original();
    p.stats.wall_seconds = stopwatch.elapsed_seconds();
    core::publish_planner_metrics(name(), p.stats);
    return std::move(p);
  };

  if (task_changes_topology_structure(task)) {
    plan.failure = "MRC cannot plan migrations that change the topology";
    return finish(std::move(plan));
  }

  topo::Topology& topo = *task.topo;
  traffic::EcmpRouter router(topo);
  const core::CostModel cost(options.alpha, options.type_weights);
  const auto num_types = static_cast<std::int32_t>(task.blocks.size());

  task.reset_to_original();
  if (!checker.check(topo).satisfied) {
    ++plan.stats.sat_checks;
    plan.failure = "original topology violates constraints";
    return finish(std::move(plan));
  }
  ++plan.stats.sat_checks;

  // Greedy loop: the topology carries the applied prefix; each step tries
  // every remaining block (MRC does not know blocks of a type are
  // interchangeable, so every block is a distinct candidate, and it may
  // execute a type's blocks out of their canonical order).
  std::vector<std::vector<bool>> used(static_cast<std::size_t>(num_types));
  for (std::int32_t a = 0; a < num_types; ++a) {
    used[static_cast<std::size_t>(a)].assign(
        task.blocks[static_cast<std::size_t>(a)].size(), false);
  }
  std::int32_t last = -1;
  const int total = task.total_actions();

  traffic::LoadVector loads;
  auto min_residual = [&]() -> double {
    loads.assign(topo.num_circuits() * 2, 0);
    for (const traffic::Demand& d : task.demands) {
      if (!router.assign(d, loads)) {
        return -std::numeric_limits<double>::infinity();
      }
    }
    double min_resid = std::numeric_limits<double>::infinity();
    for (const topo::Circuit& c : topo.circuits()) {
      if (!topo.circuit_carries_traffic(c.id)) continue;
      const traffic::Load load =
          std::max(loads[static_cast<std::size_t>(c.id) * 2],
                   loads[static_cast<std::size_t>(c.id) * 2 + 1]);
      min_resid = std::min(
          min_resid, 1.0 - traffic::utilization(load, c.capacity_tbps, 1.0));
    }
    return min_resid;
  };

  for (int step = 0; step < total; ++step) {
    if (deadline.expired()) {
      plan.failure = "timeout";
      return finish(std::move(plan));
    }

    double best_metric = -std::numeric_limits<double>::infinity();
    std::int32_t best_type = -1;
    std::int32_t best_block = -1;

    for (std::int32_t a = 0; a < num_types; ++a) {
      const auto type_total =
          static_cast<std::int32_t>(task.blocks[a].size());
      for (std::int32_t b = 0; b < type_total; ++b) {
        if (used[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]) {
          continue;
        }
        ++plan.stats.generated_states;
        const migration::OperationBlock& block =
            task.blocks[static_cast<std::size_t>(a)]
                       [static_cast<std::size_t>(b)];
        const topo::TopologyState before = topo::TopologyState::capture(topo);
        block.apply(topo);
        ++plan.stats.sat_checks;
        double metric = -std::numeric_limits<double>::infinity();
        if (checker.check(topo).satisfied) metric = min_residual();
        before.restore(topo);

        if (metric > best_metric) {
          best_metric = metric;
          best_type = a;
          best_block = b;
        }
        if (deadline.expired()) {
          plan.failure = "timeout";
          return finish(std::move(plan));
        }
      }
    }

    if (best_type == -1 ||
        best_metric == -std::numeric_limits<double>::infinity()) {
      plan.failure = "greedy search hit a dead end at step " +
                     std::to_string(step);
      return finish(std::move(plan));
    }

    task.blocks[static_cast<std::size_t>(best_type)]
               [static_cast<std::size_t>(best_block)]
                   .apply(topo);
    plan.actions.push_back(PlannedAction{best_type, best_block});
    plan.cost += cost.transition_cost(last, best_type);
    last = best_type;
    used[static_cast<std::size_t>(best_type)]
        [static_cast<std::size_t>(best_block)] = true;
    ++plan.stats.visited_states;
  }

  plan.found = true;
  return finish(std::move(plan));
}

}  // namespace klotski::baselines
