#include "klotski/baselines/janus_planner.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "klotski/baselines/mrc_planner.h"  // task_changes_topology_structure
#include "klotski/core/cost_model.h"
#include "klotski/core/search_scope.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/migration/symmetry.h"
#include "klotski/util/timer.h"

namespace klotski::baselines {

using core::CountVector;
using core::Plan;
using core::PlannedAction;
using core::PlannerOptions;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Whether Janus can template this block as (part of) a superblock step:
/// every element it touches must belong to a symmetry class with at least
/// two members, i.e. be interchangeable with something. Janus's batching
/// comes from topological symmetry, not from locality: a block that
/// operates elements the partition cannot pair with anything has no
/// symmetry to exploit, so it becomes its own rollout step with its own
/// safety validation. On a Clos fabric every chunk touches only large
/// classes and batching matches Klotski's operation blocks; on an
/// irregular flat fabric the partition is near-singleton and the plan
/// degrades toward one step per action.
bool block_templatable(const topo::Topology& topo,
                       const migration::SymmetryPartition& part,
                       const migration::OperationBlock& block) {
  const auto interchangeable = [&](topo::SwitchId sw) {
    const auto cls =
        static_cast<std::size_t>(part.class_of[static_cast<std::size_t>(sw)]);
    return part.blocks[cls].size() >= 2;
  };
  for (const migration::ElementOp& op : block.ops) {
    if (op.kind == migration::ElementOp::Kind::kSwitch) {
      if (!interchangeable(op.id)) return false;
    } else {
      const topo::Circuit& c = topo.circuit(op.id);
      if (!interchangeable(c.a) || !interchangeable(c.b)) return false;
    }
  }
  return true;
}

}  // namespace

Plan JanusPlanner::plan(migration::MigrationTask& task,
                        constraints::CompositeChecker& checker,
                        const PlannerOptions& options) {
  util::Stopwatch stopwatch;
  const util::Deadline deadline =
      options.deadline_seconds > 0.0
          ? util::Deadline::after_seconds(options.deadline_seconds)
          : util::Deadline::unlimited();

  Plan plan;
  plan.planner = name();

  // Janus disables the ordering-agnostic cache: it has no compact topology
  // representation to key it on.
  core::StateEvaluator evaluator(task, checker, /*use_cache=*/false);
  const CountVector& target = evaluator.target();
  const auto num_types = static_cast<std::int32_t>(target.size());
  const core::CostModel cost(options.alpha, options.type_weights);

  auto finish = [&](Plan&& p) {
    task.reset_to_original();
    p.stats.sat_checks = evaluator.sat_checks();
    p.stats.cache_hits = 0;
    p.stats.evaluations = evaluator.evaluations();
    p.stats.delta_applies = evaluator.delta_applies();
    p.stats.full_replays = evaluator.full_replays();
    p.stats.wall_seconds = stopwatch.elapsed_seconds();
    core::publish_planner_metrics(name(), p.stats);
    return std::move(p);
  };

  if (task_changes_topology_structure(task)) {
    plan.failure =
        "Janus assumes unchanged symmetry; it cannot plan migrations that "
        "introduce a new layer";
    return finish(std::move(plan));
  }
  const core::SearchScope scope(evaluator, checker);

  // Superblock structure from the origin topology's symmetry partition
  // (Janus assumes it does not change during the migration). Consecutive
  // same-type actions fold into one superblock step — and skip the
  // inter-step safety validation — only when both blocks are templatable
  // over the partition.
  task.reset_to_original();
  const migration::SymmetryPartition partition =
      migration::compute_symmetry(*task.topo);
  std::vector<std::vector<char>> templatable(task.blocks.size());
  for (std::size_t t = 0; t < task.blocks.size(); ++t) {
    templatable[t].reserve(task.blocks[t].size());
    for (const migration::OperationBlock& block : task.blocks[t]) {
      templatable[t].push_back(
          block_templatable(*task.topo, partition, block) ? 1 : 0);
    }
  }
  auto batches_with_predecessor = [&](std::int32_t type,
                                      std::int32_t block_index) {
    const auto& type_flags = templatable[static_cast<std::size_t>(type)];
    return block_index > 0 &&
           type_flags[static_cast<std::size_t>(block_index)] != 0 &&
           type_flags[static_cast<std::size_t>(block_index - 1)] != 0;
  };

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

  std::vector<double> f(static_cast<std::size_t>(num_states * num_types),
                        kInf);
  std::vector<std::int8_t> parent(
      static_cast<std::size_t>(num_states * num_types), -2);

  // Full traversal. For every transition (predecessor, a' -> a) Janus
  // re-validates the reached intermediate topology: without the compact
  // representation equivalent arrivals are not recognized as the same
  // state, so the satisfiability work is repeated per arc.
  CountVector counts(static_cast<std::size_t>(num_types), 0);
  for (long long idx = 1; idx < num_states; ++idx) {
    for (std::int32_t a = 0; a < num_types; ++a) {
      if (++counts[static_cast<std::size_t>(a)] <=
          target[static_cast<std::size_t>(a)]) {
        break;
      }
      counts[static_cast<std::size_t>(a)] = 0;
    }
    if (deadline.expired()) {
      plan.failure = "timeout";
      return finish(std::move(plan));
    }
    ++plan.stats.visited_states;

    for (std::int32_t a = 0; a < num_types; ++a) {
      if (counts[static_cast<std::size_t>(a)] == 0) continue;
      const long long pidx = idx - strides[static_cast<std::size_t>(a)];

      double best = kInf;
      std::int8_t best_parent = -2;
      if (pidx == 0) {
        // Predecessor is the origin, which is a safe run boundary.
        ++plan.stats.generated_states;
        best = cost.transition_cost(-1, a);
        best_parent = -1;
      } else {
        CountVector pred = counts;
        --pred[static_cast<std::size_t>(a)];
        const bool batchable = batches_with_predecessor(
            a, counts[static_cast<std::size_t>(a)] - 1);
        for (std::int32_t ap = 0; ap < num_types; ++ap) {
          const double pf =
              f[static_cast<std::size_t>(pidx * num_types + ap)];
          if (pf == kInf) continue;
          ++plan.stats.generated_states;
          // Superblock boundaries close a rollout step: the predecessor
          // topology must be safe. A same-type continuation stays inside
          // the step only when the blocks share a symmetry signature.
          // Janus re-validates per arc — without the compact
          // representation equivalent arrivals are not recognized as the
          // same state, so the satisfiability work is repeated.
          const bool batched = ap == a && batchable;
          if (!batched && !evaluator.feasible(pred)) continue;
          const double candidate =
              pf + cost.transition_cost(batched ? a : -1, a);
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
    last = prev;
  }
  plan.actions.assign(reversed.rbegin(), reversed.rend());
  return finish(std::move(plan));
}

}  // namespace klotski::baselines
