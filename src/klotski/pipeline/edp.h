// EDP-Lite (§5): the end-to-end pipeline that productionizes Klotski.
//
// Input:  an NPD document (original/target topologies + demand information).
// Output: an ordered list of topology phases, each corresponding to one
//         migration step, plus the plan and its statistics.
//
// The pipeline wires together the standard constraint stack (ports ->
// space/power -> demands, cheap checks first) and the planner selected by
// name, mirroring how operators pick a planner per task.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "klotski/constraints/composite.h"
#include "klotski/constraints/demand_checker.h"
#include "klotski/constraints/space_power_checker.h"
#include "klotski/core/compact_state.h"
#include "klotski/core/plan.h"
#include "klotski/core/planner.h"
#include "klotski/migration/task.h"
#include "klotski/npd/npd.h"
#include "klotski/traffic/ecmp.h"

namespace klotski::pipeline {

/// Creates a planner by name: "astar", "dp", "mrc", "janus", "brute".
/// Throws std::invalid_argument on unknown names.
std::unique_ptr<core::Planner> make_planner(const std::string& name);

/// The standard constraint stack bound to a task's topology. The bundle
/// owns the ECMP router the demand checker needs; keep it alive as long as
/// the checker is used.
struct CheckerBundle {
  std::unique_ptr<traffic::EcmpRouter> router;
  std::unique_ptr<constraints::CompositeChecker> checker;
};

struct CheckerConfig {
  constraints::DemandCheckerParams demand;
  constraints::SpacePowerParams space_power;
  /// Plain ECMP by default; kCapacityWeighted models the §7.1 temporary
  /// routing configurations that balance traffic by circuit capacity.
  traffic::SplitMode routing = traffic::SplitMode::kEqualSplit;
};

/// Throws std::invalid_argument, naming the knob and its range, when theta
/// is outside (0, 1] or the funneling margin is negative or not finite.
/// Callers that build checkers only later, such as a chaos sweep's seeds,
/// call it up front.
void check_checker_config(const CheckerConfig& config);

/// Every CLI, daemon method, replan round, chaos invariant and what-if
/// worker builds its checkers here, so the knobs are checked here
/// (check_checker_config).
CheckerBundle make_standard_checker(migration::MigrationTask& task,
                                    const CheckerConfig& config = {});

struct EdpOptions {
  std::string planner = "astar";
  core::PlannerOptions planner_options;
  CheckerConfig checker;
  /// When set, replaces the generated demand set before planning — the
  /// §7.1 workflow of feeding refreshed forecasts into the planner. The
  /// demands must reference switches of the built topology by id (use
  /// traffic::demands_from_json to resolve a matrix file).
  std::optional<traffic::DemandSet> demand_override;
};

struct EdpResult {
  migration::MigrationCase migration;
  core::Plan plan;
  /// Element-state snapshot after every phase (one per migration step),
  /// starting with the original state.
  std::vector<topo::TopologyState> phase_states;
};

/// Runs the whole pipeline: NPD -> topologies -> plan -> phases.
EdpResult run_pipeline(const npd::NpdDocument& doc,
                       const EdpOptions& options = {});

/// Builds the suffix task that remains after `done` blocks of each type
/// have executed: its original state is the corresponding intermediate
/// topology and its block lists are the unexecuted tails. Used by
/// re-planning (§7.1) and failure recovery (§7.2).
migration::MigrationTask remaining_task(const migration::MigrationTask& task,
                                        const core::CountVector& done);

}  // namespace klotski::pipeline
