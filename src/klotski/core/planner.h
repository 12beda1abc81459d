// Planner interface shared by Klotski-A*, Klotski-DP and the baselines.
#pragma once

#include <string>
#include <vector>

#include "klotski/constraints/composite.h"
#include "klotski/core/plan.h"
#include "klotski/migration/task.h"

namespace klotski::core {

/// Warm-start input for re-planning (pipeline/replan.cpp, DESIGN.md §11):
/// the previous plan's surviving suffix. A pure accelerator — a warm search
/// returns the same plan a cold one would, only faster — which is what lets
/// the chaos resume oracle hold across warm runs.
struct WarmStart {
  /// The surviving suffix of the previous plan, rebased into the new task's
  /// coordinates (per-type block indices renumbered from zero). The A*
  /// planner replays it into the search arena so the old plan's corridor
  /// starts on the open list; actions are validated at type boundaries
  /// during seeding and the replay stops at the first infeasibility — seeds
  /// are hints, never commitments. DP sweeps the whole lattice and ignores
  /// them.
  std::vector<PlannedAction> seed_actions;
};

struct PlannerOptions {
  /// Cost-function alpha (§5); 0 recovers Eq. 1.
  double alpha = 0.0;
  /// OPEX weights per action type (§7.2); empty = every type costs 1.
  std::vector<double> type_weights;
  /// Efficient satisfiability checking (§4.2): the A* and brute-force
  /// planners keep a per-search SatCache of verdicts; false = the "w/o ESC"
  /// ablation. DP ignores it: its dense safe[] lattice is its verdict cache.
  bool use_satisfiability_cache = true;
  /// A* priority function (§4.4); false degrades the A* planner to
  /// uniform-cost search, the "w/o A*" ablation.
  bool use_astar_heuristic = true;
  /// Use Eq. 9 exactly as printed in the paper, which can overestimate the
  /// cost-to-go and lose the optimality guarantee. For the heuristic
  /// ablation bench only.
  bool use_paper_literal_heuristic = false;
  /// Record every A* expansion into Plan::trace (the Figure 6 search
  /// process). Costs memory proportional to visited states — for
  /// inspection and teaching, not production planning.
  bool record_trace = false;
  /// Planning budget in wall seconds; 0 = unlimited (the paper capped
  /// baselines at 24 h).
  double deadline_seconds = 0.0;
  /// Safety valve for the exhaustive planners: give up (found = false,
  /// failure = "state space too large") beyond this many compact states.
  long long max_states = 200'000'000;
  /// Memory budget for the A* search structures (node arena, dedup table,
  /// open list, satisfiability cache) in MB; 0 = unbounded. When the
  /// tracked footprint exceeds the budget, the A* planner evicts the worst
  /// half of the open list, compacts the arena and clears the
  /// satisfiability cache — degrading to beam search instead of OOMing.
  /// The degradation (and the loss of the optimality guarantee) is recorded
  /// in Plan::provenance. The baseline process footprint (topology,
  /// demands, routers) is outside the budget. DP records the budget in its
  /// provenance, but it governs nothing there: the DP table is dense and
  /// pre-sized, and DP keeps no satisfiability cache.
  double mem_budget_mb = 0.0;
  /// Warm-start state from a previous planning epoch; nullptr = cold start.
  /// Not owned; must outlive the plan() call.
  const WarmStart* warm = nullptr;
};

class Planner {
 public:
  virtual ~Planner() = default;

  virtual std::string name() const = 0;

  /// Computes a migration plan. The task's topology is mutated during the
  /// search and restored to the original state before returning.
  virtual Plan plan(migration::MigrationTask& task,
                    constraints::CompositeChecker& checker,
                    const PlannerOptions& options) = 0;
};

}  // namespace klotski::core
