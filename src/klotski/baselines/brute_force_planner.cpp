#include "klotski/baselines/brute_force_planner.h"

#include <limits>
#include <vector>

#include "klotski/core/cost_model.h"
#include "klotski/core/search_scope.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/util/timer.h"

namespace klotski::baselines {

using core::CountVector;
using core::Plan;
using core::PlannedAction;
using core::PlannerOptions;

Plan BruteForcePlanner::plan(migration::MigrationTask& task,
                             constraints::CompositeChecker& checker,
                             const PlannerOptions& options) {
  util::Stopwatch stopwatch;
  Plan plan;
  plan.planner = name();

  // The oracle may use the cache: it changes which sequences are *checked*,
  // not which are enumerated, so optimality is unaffected.
  core::StateEvaluator evaluator(task, checker,
                                 options.use_satisfiability_cache);
  const CountVector& target = evaluator.target();
  const auto num_types = static_cast<std::int32_t>(target.size());
  const core::CostModel cost(options.alpha, options.type_weights);

  auto finish = [&](Plan&& p) {
    task.reset_to_original();
    p.stats.sat_checks = evaluator.sat_checks();
    p.stats.cache_hits = evaluator.cache_hits();
    p.stats.evaluations = evaluator.evaluations();
    p.stats.delta_applies = evaluator.delta_applies();
    p.stats.full_replays = evaluator.full_replays();
    p.stats.wall_seconds = stopwatch.elapsed_seconds();
    core::publish_planner_metrics(name(), p.stats);
    return std::move(p);
  };

  if (task.total_actions() > kMaxActions) {
    plan.failure = "task too large for brute force";
    return finish(std::move(plan));
  }
  const core::SearchScope scope(evaluator, checker);

  CountVector counts(static_cast<std::size_t>(num_types), 0);
  if (!evaluator.feasible(counts)) {
    plan.failure = "original topology violates constraints";
    return finish(std::move(plan));
  }
  if (counts != target && !evaluator.feasible(target)) {
    plan.failure = "target topology violates constraints";
    return finish(std::move(plan));
  }

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::int32_t> sequence;
  std::vector<std::int32_t> best_sequence;

  // Plain DFS over all type sequences. Constraints apply at action-type
  // boundaries (Eq. 4-6): switching to a different type requires the
  // current topology to be safe; extending the current parallel run does
  // not. The origin and target were verified above.
  auto dfs = [&](auto&& self, std::int32_t last, double g) -> void {
    ++plan.stats.visited_states;
    if (counts == target) {
      if (g < best_cost) {
        best_cost = g;
        best_sequence = sequence;
      }
      return;
    }
    bool boundary_known = false;
    bool boundary_ok = false;
    for (std::int32_t a = 0; a < num_types; ++a) {
      if (counts[static_cast<std::size_t>(a)] >=
          target[static_cast<std::size_t>(a)]) {
        continue;
      }
      if (a != last) {
        if (!boundary_known) {
          boundary_ok = evaluator.feasible(counts);
          boundary_known = true;
        }
        if (!boundary_ok) continue;
      }
      ++plan.stats.generated_states;
      const double g2 = g + cost.transition_cost(last, a);
      if (g2 >= best_cost) continue;  // cost pruning only
      ++counts[static_cast<std::size_t>(a)];
      sequence.push_back(a);
      self(self, a, g2);
      sequence.pop_back();
      --counts[static_cast<std::size_t>(a)];
    }
  };
  dfs(dfs, -1, 0.0);

  if (best_sequence.empty() && core::total_actions(target) > 0 &&
      best_cost == std::numeric_limits<double>::infinity()) {
    plan.failure = "no feasible action sequence exists";
    return finish(std::move(plan));
  }

  plan.found = true;
  plan.cost = best_cost == std::numeric_limits<double>::infinity() ? 0.0
                                                                   : best_cost;
  CountVector done(static_cast<std::size_t>(num_types), 0);
  for (const std::int32_t a : best_sequence) {
    plan.actions.push_back(
        PlannedAction{a, done[static_cast<std::size_t>(a)]++});
  }
  return finish(std::move(plan));
}

}  // namespace klotski::baselines
