#include "klotski/core/dp_planner.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "klotski/core/cost_model.h"
#include "klotski/core/search_scope.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/obs/trace.h"
#include "klotski/util/timer.h"

namespace klotski::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Plan DpPlanner::plan(migration::MigrationTask& task,
                     constraints::CompositeChecker& checker,
                     const PlannerOptions& options) {
  util::Stopwatch stopwatch;
  obs::Span span("plan/dp");
  const util::Deadline deadline =
      options.deadline_seconds > 0.0
          ? util::Deadline::after_seconds(options.deadline_seconds)
          : util::Deadline::unlimited();

  Plan plan;
  plan.planner = name();

  // No satisfiability cache: the safe[] lattice below keeps every cell's
  // verdict, so the §4.2 cache could only ever miss. The sweep visits
  // every cell regardless, so WarmStart's arena seeds do not apply either.
  StateEvaluator evaluator(task, checker, /*use_cache=*/false);
  const SearchScope scope(evaluator, checker);
  const CountVector& target = evaluator.target();
  const auto num_types = static_cast<std::int32_t>(target.size());
  const CostModel cost(options.alpha, options.type_weights);

  // The DP table is dense and pre-sized, so the memory budget governs
  // nothing here; it is recorded for provenance only. The A* planner owns
  // open-list eviction.
  plan.provenance.mem_budget_mb = options.mem_budget_mb;

  auto finish = [&](Plan&& p) {
    task.reset_to_original();
    p.stats.sat_checks = evaluator.sat_checks();
    p.stats.cache_hits = evaluator.cache_hits();
    p.stats.evaluations = evaluator.evaluations();
    p.stats.delta_applies = evaluator.delta_applies();
    p.stats.full_replays = evaluator.full_replays();
    p.stats.wall_seconds = stopwatch.elapsed_seconds();
    publish_planner_metrics(name(), p.stats, &p.provenance);
    return std::move(p);
  };

  // Boundary semantics (Eq. 4-6): constraints hold at the original state,
  // at every action-type change, and at the target.
  const CountVector origin(static_cast<std::size_t>(num_types), 0);
  if (!evaluator.feasible(origin)) {
    plan.failure = "original topology violates constraints";
    return finish(std::move(plan));
  }
  if (origin == target) {
    plan.found = true;
    return finish(std::move(plan));
  }
  if (!evaluator.feasible(target)) {
    plan.failure = "target topology violates constraints";
    return finish(std::move(plan));
  }

  // Mixed-radix layout: flat index = sum(v_i * stride_i).
  // Unlike A*, the DP table is dense (num_states * |A| doubles), so cap the
  // state count to keep the table within a few hundred MB.
  const long long state_limit =
      std::min<long long>(options.max_states, 20'000'000);
  std::vector<long long> strides(static_cast<std::size_t>(num_types));
  long long num_states = 1;
  for (std::int32_t a = 0; a < num_types; ++a) {
    strides[static_cast<std::size_t>(a)] = num_states;
    num_states *= target[static_cast<std::size_t>(a)] + 1;
    if (num_states > state_limit) {
      plan.failure = "state space too large";
      return finish(std::move(plan));
    }
  }

  // f and the backtracking array g (Algorithm 1); parent = last action type
  // of the optimal predecessor, -2 = unset, -1 = the origin. A state is
  // *traversable* even when its topology violates constraints — it may sit
  // in the middle of a parallel same-type run — but an action-type change
  // may only happen at a state whose topology is safe.
  std::vector<double> f(static_cast<std::size_t>(num_states * num_types),
                        kInf);
  std::vector<std::int8_t> parent(
      static_cast<std::size_t>(num_states * num_types), -2);
  // 0 = infeasible, 1 = feasible, 2 = not yet evaluated.
  std::vector<std::uint8_t> safe(static_cast<std::size_t>(num_states), 2);
  safe[0] = 1;  // the origin was checked above

  CountVector counts(static_cast<std::size_t>(num_types), 0);
  CountVector scratch(static_cast<std::size_t>(num_types), 0);
  for (long long idx = 1; idx < num_states; ++idx) {
    // Advance the odometer to match idx.
    for (std::int32_t a = 0; a < num_types; ++a) {
      if (++counts[static_cast<std::size_t>(a)] <=
          target[static_cast<std::size_t>(a)]) {
        break;
      }
      counts[static_cast<std::size_t>(a)] = 0;
    }

    if ((idx & 127) == 0 && deadline.expired()) {
      plan.failure = "timeout";
      return finish(std::move(plan));
    }
    ++plan.stats.visited_states;

    for (std::int32_t a = 0; a < num_types; ++a) {
      if (counts[static_cast<std::size_t>(a)] == 0) continue;
      const long long pidx = idx - strides[static_cast<std::size_t>(a)];
      ++plan.stats.generated_states;

      double best = kInf;
      std::int8_t best_parent = -2;
      if (pidx == 0) {
        // Predecessor is the origin (safe); the first action costs 1.
        best = cost.transition_cost(-1, a);
        best_parent = -1;
      } else {
        for (std::int32_t ap = 0; ap < num_types; ++ap) {
          const double pf =
              f[static_cast<std::size_t>(pidx * num_types + ap)];
          if (pf == kInf) continue;
          if (ap != a) {
            // Type change: the predecessor topology must be safe.
            if (safe[static_cast<std::size_t>(pidx)] == 2) {
              scratch = counts;
              --scratch[static_cast<std::size_t>(a)];
              safe[static_cast<std::size_t>(pidx)] =
                  evaluator.feasible(scratch) ? 1 : 0;
            }
            if (safe[static_cast<std::size_t>(pidx)] == 0) continue;
          }
          const double candidate = pf + cost.transition_cost(ap, a);
          if (candidate < best) {
            best = candidate;
            best_parent = static_cast<std::int8_t>(ap);
          }
        }
      }
      if (best < kInf) {
        f[static_cast<std::size_t>(idx * num_types + a)] = best;
        parent[static_cast<std::size_t>(idx * num_types + a)] = best_parent;
      }
    }
  }

  // Goal: cheapest f(target, a); the target topology itself was verified
  // safe above.
  const long long tidx = num_states - 1;
  std::int32_t best_last = -1;
  double best_cost = kInf;
  for (std::int32_t a = 0; a < num_types; ++a) {
    const double c = f[static_cast<std::size_t>(tidx * num_types + a)];
    if (c < best_cost) {
      best_cost = c;
      best_last = a;
    }
  }
  if (best_last == -1) {
    plan.failure = "no feasible action sequence exists";
    return finish(std::move(plan));
  }

  plan.found = true;
  plan.cost = best_cost;

  // Rebuild the action sequence backwards via the parent array.
  CountVector cursor = target;
  long long idx = tidx;
  std::int32_t last = best_last;
  std::vector<PlannedAction> reversed;
  while (idx != 0) {
    reversed.push_back(
        PlannedAction{last, cursor[static_cast<std::size_t>(last)] - 1});
    const std::int8_t prev =
        parent[static_cast<std::size_t>(idx * num_types + last)];
    idx -= strides[static_cast<std::size_t>(last)];
    --cursor[static_cast<std::size_t>(last)];
    last = prev;  // -1 when we have just consumed the first action
  }
  plan.actions.assign(reversed.rbegin(), reversed.rend());
  return finish(std::move(plan));
}

}  // namespace klotski::core
