#include "klotski/pipeline/edp.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "klotski/baselines/brute_force_planner.h"
#include "klotski/baselines/janus_planner.h"
#include "klotski/baselines/mrc_planner.h"
#include "klotski/constraints/port_checker.h"
#include "klotski/core/astar_planner.h"
#include "klotski/core/dp_planner.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"

namespace klotski::pipeline {

namespace {

/// The shortest text that reads back as `value` (1.0000001 stays itself).
std::string show(double value) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

}  // namespace

std::unique_ptr<core::Planner> make_planner(const std::string& name) {
  if (name == "astar") return std::make_unique<core::AStarPlanner>();
  if (name == "dp") return std::make_unique<core::DpPlanner>();
  if (name == "mrc") return std::make_unique<baselines::MrcPlanner>();
  if (name == "janus") return std::make_unique<baselines::JanusPlanner>();
  if (name == "brute") return std::make_unique<baselines::BruteForcePlanner>();
  throw std::invalid_argument("unknown planner: " + name);
}

void check_checker_config(const CheckerConfig& config) {
  // Written so that NaN fails both tests.
  const double theta = config.demand.max_utilization;
  if (!(theta > 0.0 && theta <= 1.0)) {
    throw std::invalid_argument("theta " + show(theta) +
                                " is outside (0, 1]");
  }
  const double margin = config.demand.funneling_margin;
  if (!(margin >= 0.0 && margin < std::numeric_limits<double>::infinity())) {
    throw std::invalid_argument("funneling margin " + show(margin) +
                                " is outside [0, inf)");
  }
}

CheckerBundle make_standard_checker(migration::MigrationTask& task,
                                    const CheckerConfig& config) {
  check_checker_config(config);
  CheckerBundle bundle;
  bundle.router =
      std::make_unique<traffic::EcmpRouter>(*task.topo, config.routing);
  bundle.checker = std::make_unique<constraints::CompositeChecker>();
  bundle.checker->add(std::make_unique<constraints::PortChecker>());
  if (config.space_power.max_present_per_grid > 0 ||
      config.space_power.max_present_per_plane > 0) {
    bundle.checker->add(
        std::make_unique<constraints::SpacePowerChecker>(config.space_power));
  }
  bundle.checker->add(std::make_unique<constraints::DemandChecker>(
      *bundle.router, task.demands, config.demand));
  return bundle;
}

EdpResult run_pipeline(const npd::NpdDocument& doc,
                       const EdpOptions& options) {
  obs::Span pipeline_span("edp/run_pipeline");
  obs::Registry::global().counter("edp.runs").inc();

  EdpResult result;
  {
    obs::Span span("edp/build_case");
    result.migration = npd::build_case(doc);
  }
  migration::MigrationTask& task = result.migration.task;
  if (options.demand_override.has_value()) {
    task.demands = *options.demand_override;
  }

  CheckerBundle bundle = make_standard_checker(task, options.checker);
  std::unique_ptr<core::Planner> planner = make_planner(options.planner);
  {
    obs::Span span("edp/plan");
    result.plan = planner->plan(task, *bundle.checker, options.planner_options);
  }

  if (result.plan.found) {
    // Materialize the topology after each phase: the ordered list of
    // topology phases EDP-Lite returns to the deployment tooling.
    obs::Span span("edp/phase_states");
    core::StateEvaluator evaluator(task, *bundle.checker, false);
    core::CountVector done(task.blocks.size(), 0);
    result.phase_states.push_back(task.original_state);
    for (const core::Phase& phase : result.plan.phases()) {
      done[static_cast<std::size_t>(phase.type)] +=
          static_cast<std::int32_t>(phase.block_indices.size());
      evaluator.materialize(done);
      result.phase_states.push_back(topo::TopologyState::capture(*task.topo));
    }
    task.reset_to_original();
  }
  return result;
}

migration::MigrationTask remaining_task(const migration::MigrationTask& task,
                                        const core::CountVector& done) {
  if (done.size() != task.blocks.size()) {
    throw std::invalid_argument("remaining_task: arity mismatch");
  }
  migration::MigrationTask rest;
  rest.name = task.name + "/rest";
  rest.topo = task.topo;
  rest.action_types = task.action_types;
  rest.demands = task.demands;
  rest.target_state = task.target_state;

  // Original state of the suffix = task original + executed prefix.
  task.original_state.restore(*task.topo);
  rest.blocks.resize(task.blocks.size());
  for (std::size_t t = 0; t < task.blocks.size(); ++t) {
    const auto executed = static_cast<std::size_t>(done[t]);
    if (executed > task.blocks[t].size()) {
      throw std::out_of_range("remaining_task: done exceeds block count");
    }
    for (std::size_t i = 0; i < executed; ++i) {
      task.blocks[t][i].apply(*task.topo);
    }
    rest.blocks[t].assign(task.blocks[t].begin() + executed,
                          task.blocks[t].end());
  }
  rest.original_state = topo::TopologyState::capture(*task.topo);
  task.original_state.restore(*task.topo);
  return rest;
}

}  // namespace klotski::pipeline
