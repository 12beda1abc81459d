// Migration plans: the planner output (ordered actions + cost + search
// statistics) and the phase view the EDP pipeline exports (one phase = one
// maximal run of same-type actions, executed in parallel by the field
// crews).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "klotski/migration/task.h"

namespace klotski::core {

struct PlannedAction {
  migration::ActionTypeId type = migration::kNoAction;
  /// Index into task.blocks[type]; the planner always emits the blocks of a
  /// type in their fixed order, so this is the running count - 1.
  std::int32_t block_index = -1;

  friend bool operator==(const PlannedAction&, const PlannedAction&) = default;
};

struct Phase {
  migration::ActionTypeId type = migration::kNoAction;
  std::vector<std::int32_t> block_indices;
};

struct PlannerStats {
  long long visited_states = 0;    // states expanded / DP cells filled
  long long generated_states = 0;  // successor candidates examined
  long long sat_checks = 0;        // actual constraint evaluations
  long long cache_hits = 0;        // §4.2 cache hits
  long long evaluations = 0;       // feasibility queries (= hits + checks)
  long long delta_applies = 0;     // materializations via the delta path
  long long full_replays = 0;      // materializations replayed from scratch
  long long frontier_peak = 0;     // A* open-list high-water (0 for DP)
  double wall_seconds = 0.0;
};

/// How the memory-budgeted search behaved (PlannerOptions::mem_budget_mb).
/// beam_degraded means open-list entries were evicted, so the plan is a
/// beam-search result: still audited end to end, but the cost-optimality
/// guarantee no longer holds.
struct SearchProvenance {
  double mem_budget_mb = 0.0;       // 0 = search ran unbounded
  bool beam_degraded = false;       // open-list eviction happened
  long long evicted_states = 0;     // open entries dropped by the budget
  long long compactions = 0;        // arena compaction passes
  long long peak_tracked_bytes = 0;  // high-water of the budgeted footprint

  // Warm-start replanning (DESIGN.md §11). warm_repair means no search ran
  // at all: the plan is the previous plan's surviving suffix, revalidated
  // from scratch and accepted under the repair cost slack. warm_start means
  // a search ran with its arena seeded from that suffix — its result is
  // identical to a cold search, only faster.
  bool warm_start = false;
  bool warm_repair = false;
  long long warm_seeded_nodes = 0;  // arena nodes seeded from the suffix
};

/// Publishes one run's stats into the global obs registry (no-op while
/// metrics are disabled): planner.* and evaluator.* counters, the
/// planner.frontier_peak gauge, and a planner.wall_seconds histogram
/// sample. Called from every planner's finish path.
void publish_planner_metrics(const std::string& planner,
                             const PlannerStats& stats,
                             const SearchProvenance* provenance = nullptr);

/// One A* expansion, recorded when PlannerOptions::record_trace is set —
/// the Figure 6 search-process view: which state was popped, its priority
/// decomposition, and whether it ended up on the returned plan.
struct TraceEntry {
  std::vector<std::int32_t> counts;
  std::int32_t last_type = -1;
  double g = 0.0;
  double h = 0.0;
  bool on_final_path = false;
};

struct Plan {
  bool found = false;
  std::string failure;  // reason when !found ("timeout", "infeasible", ...)
  std::string planner;  // which planner produced it
  std::vector<PlannedAction> actions;
  double cost = 0.0;
  PlannerStats stats;
  SearchProvenance provenance;
  /// Non-empty only when the search ran with record_trace (A* planner).
  std::vector<TraceEntry> trace;

  /// Groups consecutive same-type actions into phases.
  std::vector<Phase> phases() const;

  /// Recomputes the cost of `actions` under alpha (cross-check for tests).
  double recompute_cost(double alpha) const;
};

}  // namespace klotski::core
