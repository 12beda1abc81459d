#include "klotski/pipeline/replan.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>

#include "klotski/core/cost_model.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/migration/symmetry.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/util/timer.h"

namespace klotski::pipeline {

namespace {

/// Indices of maintenance events active at `step`, in option order.
std::vector<std::size_t> active_maintenance(
    const std::vector<MaintenanceEvent>& events, int step) {
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (step >= events[i].start_step && step < events[i].end_step) {
      active.push_back(i);
    }
  }
  return active;
}

/// Everything external pulling elements out of service at one step: the
/// active maintenance calendar plus the fault injector's unplanned drains.
/// The injector side also carries an epoch fingerprint so a change in the
/// fault state (including capacity degradations, which drain nothing)
/// forces a re-plan.
struct Overlay {
  std::vector<std::size_t> maintenance;
  std::vector<topo::SwitchId> fault_switches;
  std::vector<topo::CircuitId> fault_circuits;
  std::uint64_t fault_epoch = 0;
};

/// Computes the overlay for `step`. Side effect: the injector brings the
/// topology's out-of-band fault state (circuit capacities) to this step.
Overlay overlay_at(int step, const ReplanOptions& options,
                   topo::Topology& topo) {
  Overlay overlay;
  overlay.maintenance = active_maintenance(options.maintenance, step);
  if (options.injector != nullptr) {
    overlay.fault_epoch = options.injector->fault_epoch(step);
    options.injector->apply(step, topo, overlay.fault_switches,
                            overlay.fault_circuits);
  }
  return overlay;
}

/// Applies the overlay's drains on top of `state` (active elements only:
/// operated blocks override maintenance and fault state).
topo::TopologyState with_overlay(topo::TopologyState state,
                                 const std::vector<MaintenanceEvent>& events,
                                 const Overlay& overlay) {
  for (const std::size_t i : overlay.maintenance) {
    for (const topo::SwitchId sw : events[i].switches) {
      auto& slot = state.switch_states[static_cast<std::size_t>(sw)];
      if (slot == topo::ElementState::kActive) {
        slot = topo::ElementState::kDrained;
      }
    }
  }
  for (const topo::SwitchId sw : overlay.fault_switches) {
    auto& slot = state.switch_states[static_cast<std::size_t>(sw)];
    if (slot == topo::ElementState::kActive) {
      slot = topo::ElementState::kDrained;
    }
  }
  for (const topo::CircuitId c : overlay.fault_circuits) {
    auto& slot = state.circuit_states[static_cast<std::size_t>(c)];
    if (slot == topo::ElementState::kActive) {
      slot = topo::ElementState::kDrained;
    }
  }
  return state;
}

/// Restores the original state and applies the executed block prefix: the
/// intermediate topology after `done` blocks of each type have run.
void materialize_done(migration::MigrationTask& task,
                      const core::CountVector& done) {
  task.original_state.restore(*task.topo);
  for (std::size_t t = 0; t < task.blocks.size(); ++t) {
    const auto executed = static_cast<std::size_t>(done[t]);
    for (std::size_t i = 0; i < executed; ++i) {
      task.blocks[t][i].apply(*task.topo);
    }
  }
}

/// Drains the overlay's elements on the live topology (versioned mutators,
/// so incremental consumers stay consistent).
void drain_overlay(topo::Topology& topo,
                   const std::vector<MaintenanceEvent>& events,
                   const Overlay& overlay) {
  for (const std::size_t i : overlay.maintenance) {
    for (const topo::SwitchId sw : events[i].switches) {
      if (topo.sw(sw).state == topo::ElementState::kActive) {
        topo.set_switch_state(sw, topo::ElementState::kDrained);
      }
    }
  }
  for (const topo::SwitchId sw : overlay.fault_switches) {
    if (topo.sw(sw).state == topo::ElementState::kActive) {
      topo.set_switch_state(sw, topo::ElementState::kDrained);
    }
  }
  for (const topo::CircuitId c : overlay.fault_circuits) {
    if (topo.circuit(c).state == topo::ElementState::kActive) {
      topo.set_circuit_state(c, topo::ElementState::kDrained);
    }
  }
}

/// True when the rest of `plan` (phases [from..end)) stays safe when
/// executed from the current `done` prefix under `demands`, with the
/// active maintenance/fault drains applied.
bool remaining_plan_safe(migration::MigrationTask& task,
                         const core::Plan& plan, std::size_t from_phase,
                         core::CountVector done,
                         const traffic::DemandSet& demands,
                         const topo::TopologyState& maintained_original,
                         const CheckerConfig& config) {
  migration::MigrationTask probe = task;  // shallow: shares topo pointer
  probe.demands = demands;
  probe.original_state = maintained_original;
  CheckerBundle bundle = make_standard_checker(probe, config);

  // Every phase end is a distinct state, so a verdict cache could not hit.
  core::StateEvaluator evaluator(probe, *bundle.checker, false);
  const std::vector<core::Phase> phases = plan.phases();
  for (std::size_t p = from_phase; p < phases.size(); ++p) {
    done[static_cast<std::size_t>(phases[p].type)] +=
        static_cast<std::int32_t>(phases[p].block_indices.size());
    if (!evaluator.feasible(done)) {
      task.reset_to_original();
      return false;
    }
  }
  task.reset_to_original();
  return true;
}

/// The unexecuted suffix of `plan` (phases [from_phase..end)) rebased into
/// the coordinates of the remaining task: planners emit each type's blocks
/// in their fixed order, so the surviving blocks of a type renumber densely
/// from zero. The result is exactly the action list a planner would have to
/// produce for remaining_task(task, done) to keep executing the old plan
/// unchanged.
std::vector<core::PlannedAction> surviving_suffix(const core::Plan& plan,
                                                  std::size_t from_phase,
                                                  std::size_t num_types) {
  std::vector<core::PlannedAction> suffix;
  std::vector<std::int32_t> next(num_types, 0);
  const std::vector<core::Phase> phases = plan.phases();
  for (std::size_t p = from_phase; p < phases.size(); ++p) {
    const auto t = static_cast<std::size_t>(phases[p].type);
    if (t >= num_types) return {};
    for (std::size_t i = 0; i < phases[p].block_indices.size(); ++i) {
      suffix.push_back(core::PlannedAction{phases[p].type, next[t]});
      ++next[t];
    }
  }
  return suffix;
}

bool contains(const std::vector<int>& items, int value) {
  return std::find(items.begin(), items.end(), value) != items.end();
}

[[noreturn]] void checkpoint_fail(const std::string& message) {
  throw std::invalid_argument("replan-checkpoint: " + message);
}

/// Checks a resume checkpoint against `task` before anything executes: the
/// driver indexes per-type arrays with its counters and plan actions, so a
/// checkpoint from another task (or a hostile peer) must fail here, not
/// read or write out of bounds.
void validate_resume(const ReplanCheckpoint& cp,
                     const migration::MigrationTask& task) {
  const std::size_t num_types = task.blocks.size();
  if (cp.done.size() != num_types) {
    checkpoint_fail("done arity does not match the task");
  }
  for (std::size_t t = 0; t < num_types; ++t) {
    if (cp.done[t] < 0 ||
        static_cast<std::size_t>(cp.done[t]) > task.blocks[t].size()) {
      checkpoint_fail("done[" + std::to_string(t) + "] = " +
                      std::to_string(cp.done[t]) + " is outside [0, " +
                      std::to_string(task.blocks[t].size()) + "]");
    }
  }
  const auto valid_type = [&](std::int32_t type) {
    return type >= 0 && static_cast<std::size_t>(type) < num_types;
  };
  if (cp.last_type != migration::kNoAction && !valid_type(cp.last_type)) {
    checkpoint_fail("last_type " + std::to_string(cp.last_type) +
                    " is not an action type of the task");
  }
  for (const core::PlannedAction& a : cp.plan_actions) {
    if (!valid_type(a.type)) {
      checkpoint_fail("plan action type " + std::to_string(a.type) +
                      " is not an action type of the task");
    }
    if (a.block_index < 0) {
      checkpoint_fail("plan action block index " +
                      std::to_string(a.block_index) + " is negative");
    }
  }
  core::Plan plan;
  plan.actions = cp.plan_actions;
  const std::vector<core::Phase> phases = plan.phases();
  if (cp.next_phase < 0 ||
      static_cast<std::size_t>(cp.next_phase) > phases.size()) {
    checkpoint_fail("next_phase " + std::to_string(cp.next_phase) +
                    " is outside the plan's " +
                    std::to_string(phases.size()) + " phases");
  }
  if (cp.replan_pending) return;  // the stored plan only seeds a repair
  // Resuming execution: the rest of the plan must fit the blocks left.
  std::vector<std::size_t> after(cp.done.begin(), cp.done.end());
  for (std::size_t p = static_cast<std::size_t>(cp.next_phase);
       p < phases.size(); ++p) {
    const auto t = static_cast<std::size_t>(phases[p].type);
    after[t] += phases[p].block_indices.size();
    if (after[t] > task.blocks[t].size()) {
      checkpoint_fail("the plan from next_phase runs past the " +
                      std::to_string(task.blocks[t].size()) +
                      " blocks of type " + std::to_string(t));
    }
  }
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// The non-negative int at `key`.
int count_at(const json::Value& object, const std::string& key) {
  return static_cast<int>(object.at(key).as_int_in(key, 0, kIntMax));
}

/// `value` as an int32; `field` names it in the error.
std::int32_t int32_of(const json::Value& value, const std::string& field) {
  return static_cast<std::int32_t>(
      value.as_int_in(field, kInt32Min, kInt32Max));
}

ReplanCheckpoint read_checkpoint(const json::Value& value) {
  if (!value.is_object()) checkpoint_fail("document is not an object");
  const std::string schema = value.get_string("schema", "");
  if (schema != "klotski.replan-checkpoint.v2" &&
      schema != "klotski.replan-checkpoint.v1") {
    checkpoint_fail("unknown schema '" + schema + "'");
  }
  ReplanCheckpoint cp;
  cp.phases_executed = count_at(value, "phases_executed");
  cp.step = count_at(value, "step");
  cp.next_phase = count_at(value, "next_phase");
  cp.planning_runs = count_at(value, "planning_runs");
  cp.last_plan_step = count_at(value, "last_plan_step");
  cp.phase_retries = count_at(value, "phase_retries");
  cp.fallback_active = value.at("fallback_active").as_bool();
  cp.fallback_plans = count_at(value, "fallback_plans");
  cp.last_type = int32_of(value.at("last_type"), "last_type");
  cp.executed_cost = value.at("executed_cost").as_double();
  cp.state_version = static_cast<std::uint64_t>(
      value.at("state_version")
          .as_int_in("state_version", 0,
                     std::numeric_limits<std::int64_t>::max()));
  const json::Array& done = value.at("done").as_array();
  for (std::size_t t = 0; t < done.size(); ++t) {
    cp.done.push_back(int32_of(done[t], "done[" + std::to_string(t) + "]"));
  }
  const json::Value& plan = value.at("plan");
  cp.plan_planner = plan.get_string("planner", "");
  cp.plan_cost = plan.get_double("cost", 0.0);
  const json::Array& actions = plan.at("actions").as_array();
  for (std::size_t i = 0; i < actions.size(); ++i) {
    const json::Array& pair = actions[i].as_array();
    if (pair.size() != 2) checkpoint_fail("plan action is not a [type, index] pair");
    const std::string field = "plan.actions[" + std::to_string(i) + "]";
    core::PlannedAction action;
    action.type = int32_of(pair[0], field + ".type");
    action.block_index = int32_of(pair[1], field + ".block_index");
    cp.plan_actions.push_back(action);
  }
  // v2 warm-state provenance. A v1 document predates warm-start replanning,
  // so the zero defaults are exact — and replan_pending stays false (v1
  // never stored a plan when a re-plan was pending, so a stored plan always
  // meant "resume executing it"). Older v2 writers also stored
  // warm.sat_generation, a diagnostic nothing reads; it is ignored.
  cp.replan_pending = value.get_bool("replan_pending", false);
  if (value.as_object().contains("warm")) {
    const json::Value& warm = value.at("warm");
    cp.warm_attempts =
        static_cast<int>(warm.get_int_in("attempts", 0, 0, kIntMax));
    cp.warm_wins = static_cast<int>(warm.get_int_in("wins", 0, 0, kIntMax));
    cp.fallback_full =
        static_cast<int>(warm.get_int_in("fallback_full", 0, 0, kIntMax));
  }
  const json::Array& consumed = value.at("consumed_failures").as_array();
  for (std::size_t i = 0; i < consumed.size(); ++i) {
    cp.consumed_failures.push_back(static_cast<int>(consumed[i].as_int_in(
        "consumed_failures[" + std::to_string(i) + "]",
        std::numeric_limits<int>::min(), kIntMax)));
  }
  return cp;
}

}  // namespace

json::Value ReplanCheckpoint::to_json() const {
  json::Object root;
  root["schema"] = "klotski.replan-checkpoint.v2";
  root["phases_executed"] = phases_executed;
  root["step"] = step;
  root["next_phase"] = next_phase;
  root["planning_runs"] = planning_runs;
  root["last_plan_step"] = last_plan_step;
  root["phase_retries"] = phase_retries;
  root["fallback_active"] = fallback_active;
  root["fallback_plans"] = fallback_plans;
  root["last_type"] = static_cast<std::int64_t>(last_type);
  root["executed_cost"] = executed_cost;
  root["state_version"] = static_cast<std::int64_t>(state_version);
  json::Array done_json;
  for (const std::int32_t v : done) done_json.emplace_back(v);
  root["done"] = json::Value(std::move(done_json));
  {
    json::Object plan;
    plan["planner"] = plan_planner;
    plan["cost"] = plan_cost;
    json::Array actions;
    for (const core::PlannedAction& a : plan_actions) {
      json::Array pair;
      pair.emplace_back(static_cast<std::int64_t>(a.type));
      pair.emplace_back(static_cast<std::int64_t>(a.block_index));
      actions.push_back(json::Value(std::move(pair)));
    }
    plan["actions"] = json::Value(std::move(actions));
    root["plan"] = json::Value(std::move(plan));
  }
  root["replan_pending"] = replan_pending;
  {
    json::Object warm;
    warm["attempts"] = warm_attempts;
    warm["wins"] = warm_wins;
    warm["fallback_full"] = fallback_full;
    root["warm"] = json::Value(std::move(warm));
  }
  json::Array consumed;
  for (const int v : consumed_failures) consumed.emplace_back(v);
  root["consumed_failures"] = json::Value(std::move(consumed));
  return json::Value(std::move(root));
}

ReplanCheckpoint ReplanCheckpoint::from_json(const json::Value& value) {
  // A checkpoint is untrusted input: every failure to read one, a missing
  // key or an integer out of its field's range included, is a
  // replan-checkpoint error.
  try {
    return read_checkpoint(value);
  } catch (const json::JsonError& e) {
    checkpoint_fail(e.what());
  }
}

ReplanResult execute_with_replanning(migration::MigrationTask& task,
                                     core::Planner& planner,
                                     traffic::Forecaster& forecaster,
                                     const ReplanOptions& options) {
  obs::Span replan_span("replan/execute");
  ReplanResult result;
  const core::CostModel cost(options.planner_options.alpha,
                             options.planner_options.type_weights);

  core::CountVector done(task.blocks.size(), 0);
  core::CountVector target;
  for (const auto& blocks : task.blocks) {
    target.push_back(static_cast<std::int32_t>(blocks.size()));
  }

  std::int32_t last_type = migration::kNoAction;
  int step = 0;
  int planning_runs = 0;
  int last_plan_step = 0;
  std::vector<int> consumed_failures;
  bool fallback_active = false;
  int fallback_plans = 0;
  std::unique_ptr<core::Planner> fallback;
  // Retry bookkeeping for the phase currently failing (executed-phase
  // indices never repeat after success, so one slot suffices).
  int retry_phase = -1;
  int retry_count = 0;

  core::Plan plan;
  std::size_t start_phase = 0;
  bool have_plan = false;

  // ---- Warm-start replanning state (DESIGN.md §11) ----
  const std::size_t num_types = task.blocks.size();
  // The surviving suffix of the plan that was executing when the last
  // re-plan triggered, rebased into remaining-task coordinates. One-shot:
  // the next planning round consumes it (repair attempt and/or arena seed).
  std::vector<core::PlannedAction> warm_seed;

  // The prefix-preserving repair (DESIGN.md §11): keep executing the
  // surviving suffix of the previous plan when it (a) only operates switches
  // whose symmetry classes the disruption left alone, (b) passes a
  // from-scratch revalidation at every action-type boundary under the
  // current forecast (and under measured demand when the forecast is
  // biased), and (c) costs at most repair_cost_slack times an admissible
  // lower bound of the from-scratch optimum. On acceptance `plan` holds the
  // suffix; on decline `reason` says why and the caller falls back to a
  // (still warm-seeded) full search.
  auto try_suffix_repair = [&](const Overlay& overlay,
                               std::string& reason) -> bool {
    migration::MigrationTask rest = remaining_task(task, done);
    rest.demands = forecaster.forecast_at_step(step);
    rest.original_state = with_overlay(std::move(rest.original_state),
                                       options.maintenance, overlay);

    // The suffix must cover exactly the remaining blocks of every type.
    core::CountVector rest_target;
    for (const auto& blocks : rest.blocks) {
      rest_target.push_back(static_cast<std::int32_t>(blocks.size()));
    }
    core::CountVector suffix_total(num_types, 0);
    for (const core::PlannedAction& a : warm_seed) {
      const auto t = static_cast<std::size_t>(a.type);
      if (t >= num_types) {
        reason = "suffix references an unknown action type";
        return false;
      }
      ++suffix_total[t];
    }
    if (suffix_total != rest_target) {
      reason = "suffix does not cover the remaining blocks";
      return false;
    }

    // Symmetry gate: compare the equivalence classes of the current
    // executed prefix under the fault/maintenance state the plan was built
    // against with the classes under the current state. A suffix operating
    // a switch whose interchangeability set changed is quality-suspect (its
    // blocks were formed under the old classes), so prefer a full re-plan.
    // This is a quality heuristic only — safety is decided by the
    // revalidation below, which assumes nothing about interchangeability.
    {
      obs::Span symmetry_span("replan/repair_symmetry");
      // Fast path: an identical active-maintenance set and an identical
      // fault epoch (which fingerprints drains and capacity degradations
      // alike — capacities are a pure function of the active event set)
      // mean the plan-time and current comparison states materialize the
      // identical topology, so the refinement cannot have moved and the
      // two refinements below would diff nothing.
      const bool same_world =
          active_maintenance(options.maintenance, last_plan_step) ==
              overlay.maintenance &&
          (options.injector == nullptr ||
           options.injector->fault_epoch(last_plan_step) ==
               overlay.fault_epoch);
      if (!same_world) {
        Overlay plan_overlay = overlay_at(last_plan_step, options, *task.topo);
        materialize_done(task, done);
        drain_overlay(*task.topo, options.maintenance, plan_overlay);
        const migration::SymmetryPartition before =
            migration::compute_symmetry(*task.topo);
        overlay_at(step, options, *task.topo);  // restore this step's faults
        materialize_done(task, done);
        drain_overlay(*task.topo, options.maintenance, overlay);
        const std::vector<topo::SwitchId> changed =
            migration::changed_switches(
                before, migration::compute_symmetry(*task.topo));
        bool hit = false;
        if (!changed.empty()) {
          std::vector<std::uint8_t> is_changed(task.topo->num_switches(), 0);
          for (const topo::SwitchId s : changed) {
            is_changed[static_cast<std::size_t>(s)] = 1;
          }
          for (const auto& blocks : rest.blocks) {
            for (const migration::OperationBlock& block : blocks) {
              for (const migration::ElementOp& op : block.ops) {
                if (op.kind == migration::ElementOp::Kind::kSwitch) {
                  hit = is_changed[static_cast<std::size_t>(op.id)] != 0;
                } else {
                  const topo::Circuit& c = task.topo->circuit(op.id);
                  hit = is_changed[static_cast<std::size_t>(c.a)] != 0 ||
                        is_changed[static_cast<std::size_t>(c.b)] != 0;
                }
                if (hit) break;
              }
              if (hit) break;
            }
            if (hit) break;
          }
        }
        task.reset_to_original();
        if (hit) {
          reason = "symmetry classes changed under the suffix";
          return false;
        }
      }
    }

    // From-scratch revalidation of every boundary state (Eq. 4-6) the
    // suffix visits, under the current forecast. Each boundary is a
    // distinct state, so the evaluator runs without a verdict cache.
    obs::Span revalidate_span("replan/repair_revalidate");
    CheckerBundle bundle = make_standard_checker(rest, options.checker);
    core::StateEvaluator evaluator(rest, *bundle.checker, false);

    double suffix_cost = 0.0;
    bool safe = true;
    {
      core::CountVector cur(num_types, 0);
      std::int32_t last = -1;
      if (!evaluator.feasible(cur)) safe = false;
      for (std::size_t i = 0; safe && i < warm_seed.size(); ++i) {
        const core::PlannedAction& a = warm_seed[i];
        if (a.type != last && last != -1 && !evaluator.feasible(cur)) {
          safe = false;
          break;
        }
        suffix_cost += cost.transition_cost(last, a.type);
        ++cur[static_cast<std::size_t>(a.type)];
        last = a.type;
      }
      if (safe && !evaluator.feasible(cur)) safe = false;
    }
    task.reset_to_original();
    if (!safe) {
      reason = "suffix violates constraints under the current forecast";
      return false;
    }

    // Cost gate: the heuristic at the all-zero state is an admissible lower
    // bound of the optimal from-scratch cost, so accepting under
    // repair_cost_slack bounds the suboptimality of keeping the suffix.
    const core::CountVector zeros(num_types, 0);
    const double bound = cost.heuristic(zeros, rest_target, -1);
    if (suffix_cost > options.repair_cost_slack * bound) {
      reason = "suffix cost " + std::to_string(suffix_cost) +
               " exceeds slack x lower bound " +
               std::to_string(options.repair_cost_slack * bound);
      return false;
    }

    // A suffix kept under a biased forecast must also be safe under the
    // demands actually measured right now (mirrors the full path's biased
    // re-validation).
    if (forecaster.biased_at(step)) {
      core::Plan probe;
      probe.actions = warm_seed;
      if (!remaining_plan_safe(task, probe, 0, done, forecaster.at_step(step),
                               with_overlay(task.original_state,
                                            options.maintenance, overlay),
                               options.checker)) {
        reason = "suffix violates measured demand (biased forecast)";
        return false;
      }
    }

    core::Plan repaired;
    repaired.found = true;
    repaired.planner = plan.planner;
    if (repaired.planner.empty()) repaired.planner = planner.name();
    repaired.actions = warm_seed;
    repaired.cost = suffix_cost;
    repaired.provenance.warm_repair = true;
    plan = std::move(repaired);
    return true;
  };

  if (options.resume != nullptr) {
    const ReplanCheckpoint& cp = *options.resume;
    validate_resume(cp, task);
    done = cp.done;
    result.phases_executed = cp.phases_executed;
    result.executed_cost = cp.executed_cost;
    result.phase_retries = cp.phase_retries;
    step = cp.step;
    planning_runs = cp.planning_runs;
    last_plan_step = cp.last_plan_step;
    last_type = cp.last_type;
    fallback_active = cp.fallback_active;
    fallback_plans = cp.fallback_plans;
    consumed_failures = cp.consumed_failures;
    result.used_fallback = fallback_active;
    result.warm_attempts = cp.warm_attempts;
    result.warm_wins = cp.warm_wins;
    result.fallback_full = cp.fallback_full;
    if (!cp.plan_actions.empty()) {
      plan.found = true;
      plan.planner = cp.plan_planner;
      plan.cost = cp.plan_cost;
      plan.actions = cp.plan_actions;
      if (cp.replan_pending) {
        // The interrupted run was about to re-plan: reconstruct the warm
        // seed it would have carried instead of resuming execution, so the
        // resumed trajectory makes the same repair-vs-search decision.
        warm_seed = surviving_suffix(
            plan, static_cast<std::size_t>(cp.next_phase), num_types);
      } else {
        have_plan = true;
        start_phase = static_cast<std::size_t>(cp.next_phase);
      }
    }
    result.log.push_back(
        "resumed from checkpoint: " + std::to_string(cp.phases_executed) +
        " phases executed, step " + std::to_string(cp.step));
    obs::Registry::global().counter("replan.resumes").inc();
  }

  while (done != target) {
    // Maintenance calendar + fault state for this round; the injector also
    // brings circuit capacities to this step.
    Overlay overlay = overlay_at(step, options, *task.topo);

    if (!have_plan) {
      util::Stopwatch round_watch;
      bool round_warm = false;
      bool round_seeded = false;

      // Repair-first (DESIGN.md §11): try to keep the surviving suffix
      // before paying for a search. Skipped under the fallback planner
      // (degradation means the primary's plans are no longer trusted) and
      // once the re-plan budget is exhausted (the full path must degrade).
      if (options.warm_repair && !warm_seed.empty() && !fallback_active &&
          !(options.max_replans > 0 &&
            planning_runs >= options.max_replans)) {
        obs::Span repair_span("replan/repair_attempt");
        ++result.warm_attempts;
        obs::Registry::global().counter("replan.warm_attempts").inc();
        std::string reason;
        if (try_suffix_repair(overlay, reason)) {
          round_warm = true;
          ++result.warm_wins;
          obs::Registry::global().counter("replan.warm_wins").inc();
          ++planning_runs;
          obs::Registry::global().counter("replan.planning_runs").inc();
          last_plan_step = step;
          result.log.push_back(
              "warm repair kept " + std::to_string(plan.actions.size()) +
              " surviving actions (cost " + std::to_string(plan.cost) +
              ") at step " + std::to_string(step));
        } else {
          ++result.fallback_full;
          obs::Registry::global().counter("replan.fallback_full").inc();
          result.log.push_back("warm repair declined (" + reason +
                               "); planning from scratch");
        }
      }

      if (!round_warm) {
      // (Re-)plan from the current intermediate topology with the freshest
      // forecast and the active maintenance/fault drains applied. Bounded
      // retry-with-backoff when planning fails under an active fault (the
      // fault may clear), truth re-validation when the forecast is biased,
      // and graceful degradation to the fallback planner after max_replans.
      bool use_truth = false;
      int plan_attempt = 0;
      for (;;) {
        migration::MigrationTask rest = remaining_task(task, done);
        const bool biased = !use_truth && forecaster.biased_at(step);
        rest.demands = use_truth ? forecaster.at_step(step)
                                 : forecaster.forecast_at_step(step);
        rest.original_state = with_overlay(std::move(rest.original_state),
                                           options.maintenance, overlay);
        for (const std::size_t i : overlay.maintenance) {
          result.log.push_back("maintenance active while planning: " +
                               options.maintenance[i].name);
        }

        if (options.max_replans > 0 && planning_runs >= options.max_replans &&
            !fallback_active) {
          fallback_active = true;
          result.used_fallback = true;
          result.log.push_back(
              "re-plan budget (" + std::to_string(options.max_replans) +
              ") exhausted; degrading to fallback planner '" +
              options.fallback_planner + "'");
          obs::Registry::global().counter("replan.fallback_activations").inc();
        }
        if (fallback_active && fallback == nullptr) {
          fallback = make_planner(options.fallback_planner);
        }
        core::Planner& active_planner =
            fallback_active ? *fallback : planner;

        // Warm search (DESIGN.md §11): seed the arena with the surviving
        // suffix. A pure accelerator — the planner's result is identical to
        // a cold run. The fallback planner always runs cold: its plans must
        // not depend on the primary's artifacts.
        core::PlannerOptions round_options = options.planner_options;
        core::WarmStart warm_start;
        if (options.warm_repair && !fallback_active) {
          warm_start.seed_actions = warm_seed;
          round_options.warm = &warm_start;
          round_seeded = !warm_start.seed_actions.empty();
        }

        CheckerBundle bundle = make_standard_checker(rest, options.checker);
        {
          obs::Span span("replan/plan_round");
          plan = active_planner.plan(rest, *bundle.checker, round_options);
        }
        ++planning_runs;
        if (fallback_active) ++fallback_plans;
        obs::Registry::global().counter("replan.planning_runs").inc();
        last_plan_step = step;

        if (!plan.found) {
          // Under an injector the infeasibility may be a transient fault;
          // wait out the backoff and try again before giving up.
          if (options.injector != nullptr &&
              plan_attempt < options.max_phase_retries) {
            ++plan_attempt;
            ++result.phase_retries;
            const int wait =
                std::min(options.backoff_steps << (plan_attempt - 1),
                         options.max_backoff_steps);
            step += std::max(wait, 1);
            result.log.push_back(
                "planning failed (" + plan.failure + "); backing off " +
                std::to_string(std::max(wait, 1)) + " steps (attempt " +
                std::to_string(plan_attempt) + ")");
            obs::Registry::global().counter("replan.planning_retries").inc();
            overlay = overlay_at(step, options, *task.topo);
            continue;
          }
          result.failure = "planning failed at step " +
                           std::to_string(step) + ": " + plan.failure;
          task.reset_to_original();
          return result;
        }

        // A plan built on a biased forecast must be safe under the demands
        // actually measured right now before anything executes (§7.2:
        // forecasts can be wrong; executed states may not be).
        if (biased &&
            !remaining_plan_safe(task, plan, 0, done,
                                 forecaster.at_step(step),
                                 with_overlay(task.original_state,
                                              options.maintenance, overlay),
                                 options.checker)) {
          result.log.push_back(
              "plan built on biased forecast violates measured demand; "
              "re-planning on measured demand");
          obs::Registry::global().counter("replan.bias_replans").inc();
          use_truth = true;
          continue;
        }
        break;
      }
      result.log.push_back("planned " + std::to_string(plan.actions.size()) +
                           " actions (cost " + std::to_string(plan.cost) +
                           ") at step " + std::to_string(step));
      }  // !round_warm

      warm_seed.clear();
      result.rounds.push_back(ReplanRound{last_plan_step, round_warm,
                                          round_seeded,
                                          round_watch.elapsed_seconds()});
      start_phase = 0;
    }
    have_plan = false;

    const std::vector<core::Phase> phases = plan.phases();
    bool need_replan = false;
    for (std::size_t p = start_phase; p < phases.size() && !need_replan;
         ++p) {
      const core::Phase& phase = phases[p];

      // Injected operation failure (§7.2): the step fails, the crew stops
      // (rolling back any partially applied ops), and a fresh plan is
      // generated before retrying — up to max_phase_retries times.
      int fail_ops = -1;
      if (contains(options.failing_phases, result.phases_executed) &&
          !contains(consumed_failures, result.phases_executed)) {
        consumed_failures.push_back(result.phases_executed);
        fail_ops = 0;
      }
      const int attempt =
          retry_phase == result.phases_executed ? retry_count : 0;
      if (fail_ops < 0 && options.injector != nullptr) {
        fail_ops = options.injector->phase_failure_ops(
            result.phases_executed, attempt);
      }
      if (fail_ops >= 0) {
        obs::Registry::global().counter("replan.injected_failures").inc();
        if (fail_ops > 0) {
          // Partial block application: the config push died mid-block. The
          // crew rolls the torn state back to the pre-step snapshot before
          // anyone re-plans.
          const auto t = static_cast<std::size_t>(phase.type);
          const migration::OperationBlock& block =
              task.blocks[t][static_cast<std::size_t>(done[t])];
          materialize_done(task, done);
          const topo::TopologyState before =
              topo::TopologyState::capture(*task.topo);
          block.apply_prefix(*task.topo,
                             static_cast<std::size_t>(fail_ops));
          before.restore(*task.topo);
          task.reset_to_original();
          result.log.push_back(
              "phase " + std::to_string(result.phases_executed) +
              " failed after " + std::to_string(fail_ops) +
              " ops; rolled back, re-planning");
        } else {
          result.log.push_back("phase " +
                               std::to_string(result.phases_executed) +
                               " failed during operation; re-planning");
        }
        if (retry_phase != result.phases_executed) {
          retry_phase = result.phases_executed;
          retry_count = 0;
        }
        ++retry_count;
        if (retry_count > options.max_phase_retries) {
          result.failure =
              "phase " + std::to_string(result.phases_executed) +
              " failed " + std::to_string(retry_count) +
              " attempts (retry budget " +
              std::to_string(options.max_phase_retries) + ")";
          task.reset_to_original();
          return result;
        }
        ++result.phase_retries;
        const int wait = std::min(options.backoff_steps << (retry_count - 1),
                                  options.max_backoff_steps);
        if (wait > 0) {
          step += wait;
          result.log.push_back("backing off " + std::to_string(wait) +
                               " steps before retry " +
                               std::to_string(retry_count));
        }
        // The failed phase never executed, so the surviving suffix for the
        // warm repair starts at the failed phase itself.
        warm_seed = surviving_suffix(plan, p, num_types);
        need_replan = true;
        break;
      }

      // Execute the phase. Phase block indices of the suffix task map onto
      // the global canonical order by offsetting with the executed prefix,
      // so only their count matters here.
      for (std::size_t i = 0; i < phase.block_indices.size(); ++i) {
        result.executed_cost += cost.transition_cost(last_type, phase.type);
        last_type = phase.type;
      }
      done[static_cast<std::size_t>(phase.type)] +=
          static_cast<std::int32_t>(phase.block_indices.size());
      ++result.phases_executed;
      obs::Registry::global().counter("replan.phases_executed").inc();

      // Invariant observer: hand out the materialized executed state (with
      // the overlay drains) under the ground-truth demands of the step the
      // phase executed at.
      if (options.observer) {
        materialize_done(task, done);
        drain_overlay(*task.topo, options.maintenance, overlay);
        const traffic::DemandSet truth = forecaster.at_step(step);
        const PhaseObservation observation{
            result.phases_executed,
            step,
            phase.type,
            static_cast<int>(phase.block_indices.size()),
            done,
            result.executed_cost,
            *task.topo,
            truth};
        options.observer(observation);
        task.reset_to_original();
      }
      ++step;

      // Refresh the forecast after each migration step (§7.1), watch the
      // maintenance calendar and the fault state, and re-validate the
      // remaining plan.
      if (done != target) {
        const Overlay now = overlay_at(step, options, *task.topo);
        if (now.maintenance != overlay.maintenance) {
          obs::Registry::global().counter("replan.maintenance_changes").inc();
          result.log.push_back("maintenance calendar changed at step " +
                               std::to_string(step) + "; re-planning");
          need_replan = true;
        } else if (now.fault_epoch != overlay.fault_epoch) {
          obs::Registry::global().counter("replan.fault_changes").inc();
          result.log.push_back("fault state changed at step " +
                               std::to_string(step) + "; re-planning");
          need_replan = true;
        } else {
          const double drift =
              forecaster.max_relative_change(last_plan_step, step);
          if (drift > options.demand_change_threshold) {
            result.log.push_back("forecast drifted " +
                                 std::to_string(drift) +
                                 " since planning; re-planning");
            need_replan = true;
          } else if (!remaining_plan_safe(
                         task, plan, p + 1, done, forecaster.at_step(step),
                         with_overlay(task.original_state,
                                      options.maintenance, now),
                         options.checker)) {
            result.log.push_back(
                "remaining plan violates constraints under updated demand; "
                "re-planning");
            need_replan = true;
          }
        }
        if (need_replan) {
          // Executed phases [..p]; the rest of the plan survives as the
          // warm-repair seed for the round the trigger just scheduled.
          warm_seed = surviving_suffix(plan, p + 1, num_types);
        }
      }

      if (options.checkpoint_sink) {
        ReplanCheckpoint cp;
        cp.phases_executed = result.phases_executed;
        cp.step = step;
        cp.planning_runs = planning_runs;
        cp.last_plan_step = last_plan_step;
        cp.phase_retries = result.phase_retries;
        cp.fallback_active = fallback_active;
        cp.fallback_plans = fallback_plans;
        cp.last_type = last_type;
        cp.executed_cost = result.executed_cost;
        cp.state_version = task.topo->state_version();
        cp.done = done;
        cp.consumed_failures = consumed_failures;
        cp.warm_attempts = result.warm_attempts;
        cp.warm_wins = result.warm_wins;
        cp.fallback_full = result.fallback_full;
        // v2 stores the plan even when a re-plan is pending: the resume
        // rebuilds the warm-repair seed from its suffix, keeping the
        // resumed trajectory identical to the uninterrupted one.
        if (done != target && p + 1 < phases.size()) {
          cp.next_phase = static_cast<int>(p) + 1;
          cp.plan_actions = plan.actions;
          cp.plan_cost = plan.cost;
          cp.plan_planner = plan.planner;
          cp.replan_pending = need_replan;
        }
        options.checkpoint_sink(cp);
      }

      if (done != target && options.stop_requested &&
          options.stop_requested()) {
        // Graceful stop: the checkpoint for this phase is already out, so
        // the caller can resume exactly here. Not a failure.
        result.stopped = true;
        result.replans = planning_runs - 1;
        result.fallback_plans = fallback_plans;
        result.log.push_back("stop requested after phase " +
                             std::to_string(result.phases_executed) +
                             "; checkpointed and stopping");
        obs::Registry::global().counter("replan.stops").inc();
        task.reset_to_original();
        return result;
      }

      if (done == target) break;
    }
    start_phase = 0;
  }

  result.completed = true;
  result.replans = planning_runs - 1;
  result.fallback_plans = fallback_plans;
  obs::Registry::global().counter("replan.replans").inc(result.replans);
  task.reset_to_original();
  return result;
}

}  // namespace klotski::pipeline
