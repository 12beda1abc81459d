#include "klotski/core/plan.h"

#include "klotski/core/cost_model.h"
#include "klotski/obs/metrics.h"

namespace klotski::core {

void publish_planner_metrics(const std::string& planner,
                             const PlannerStats& stats,
                             const SearchProvenance* provenance) {
  if (!obs::metrics_enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("planner.runs").inc();
  reg.counter("planner." + planner + ".runs").inc();
  reg.counter("planner.states_expanded").inc(stats.visited_states);
  reg.counter("planner.states_generated").inc(stats.generated_states);
  reg.gauge("planner.frontier_peak")
      .set_max(static_cast<double>(stats.frontier_peak));
  reg.counter("evaluator.evaluations").inc(stats.evaluations);
  reg.counter("evaluator.sat_cache_hits").inc(stats.cache_hits);
  reg.counter("evaluator.sat_cache_misses").inc(stats.sat_checks);
  reg.counter("evaluator.delta_applies").inc(stats.delta_applies);
  reg.counter("evaluator.full_replays").inc(stats.full_replays);
  reg.histogram("planner.wall_seconds").observe(stats.wall_seconds);
  if (provenance != nullptr && provenance->warm_start) {
    reg.counter("planner.warm_starts").inc();
    reg.counter("planner.warm_seeded_nodes").inc(provenance->warm_seeded_nodes);
  }
  if (provenance != nullptr && provenance->mem_budget_mb > 0.0) {
    reg.counter("planner.evicted_states").inc(provenance->evicted_states);
    reg.counter("planner.compactions").inc(provenance->compactions);
    if (provenance->beam_degraded) {
      reg.counter("planner.beam_degraded_runs").inc();
    }
    reg.gauge("planner.peak_tracked_bytes")
        .set_max(static_cast<double>(provenance->peak_tracked_bytes));
  }
}

std::vector<Phase> Plan::phases() const {
  std::vector<Phase> out;
  for (const PlannedAction& action : actions) {
    if (out.empty() || out.back().type != action.type) {
      out.push_back(Phase{action.type, {}});
    }
    out.back().block_indices.push_back(action.block_index);
  }
  return out;
}

double Plan::recompute_cost(double alpha) const {
  CostModel model(alpha);
  std::vector<std::int32_t> types;
  types.reserve(actions.size());
  for (const PlannedAction& action : actions) types.push_back(action.type);
  return model.sequence_cost(types);
}

}  // namespace klotski::core
