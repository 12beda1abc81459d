// Execution simulation with re-planning (§7.1-§7.2).
//
// Migrations run for weeks; demand grows organically and can surge
// unexpectedly, and individual steps can fail in the config-push pipeline.
// This module simulates executing a plan phase by phase against a demand
// forecaster: after every phase the forecast is refreshed (the paper:
// "we run the forecast after each migration step"), the remaining plan is
// re-validated, and on violation (or on injected step failure) the planner
// is re-run from the current intermediate topology.
//
// The driver is hardened for adversarial execution (the chaos engine in
// src/klotski/sim drives it through thousands of seeded trajectories):
//  * a FaultInjector hook applies circuit degradations / failures and
//    unplanned drains between phases and decides injected step failures,
//  * failed phases retry with bounded exponential backoff (waiting costs
//    forecast steps: demand keeps growing while the crew regroups),
//  * after `max_replans` planning rounds the driver degrades gracefully to
//    a conservative fallback planner from `baselines`,
//  * every executed phase can be checkpointed to JSON; a killed run resumed
//    from its last checkpoint replays the identical trajectory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "klotski/core/planner.h"
#include "klotski/json/json.h"
#include "klotski/pipeline/edp.h"
#include "klotski/traffic/forecast.h"

namespace klotski::pipeline {

/// Routine maintenance outside Klotski's control (§7.2 "simultaneous
/// operations"): firmware upgrades or device rebuilds drain the listed
/// switches over [start_step, end_step) migration steps. The driver
/// re-plans whenever the active maintenance set changes and plans around
/// the drained equipment. Events should target switches the migration does
/// not itself operate (operated blocks override maintenance state).
struct MaintenanceEvent {
  std::string name;
  std::vector<topo::SwitchId> switches;
  int start_step = 0;
  int end_step = 0;  // exclusive
};

/// Fault-injection hook the driver consults between executed phases
/// (implemented by the chaos engine, src/klotski/sim). Every method must be
/// a deterministic function of its arguments so a checkpointed run resumes
/// bit-identically.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Fingerprint of the fault state active at `step`. The driver re-plans
  /// whenever the epoch changes between steps — degradations, circuit
  /// failures, and unplanned drains starting or ending — mirroring the
  /// maintenance-calendar logic.
  virtual std::uint64_t fault_epoch(int step) const = 0;

  /// Brings the topology's out-of-band attributes (circuit capacities) to
  /// the fault state of `step` — implementations must follow the topology
  /// contract and call bump_state_version() when they change anything — and
  /// appends the step's unplanned element drains to the overlay vectors.
  /// Idempotent per step; called at least once per planning/validation
  /// round.
  virtual void apply(int step, topo::Topology& topo,
                     std::vector<topo::SwitchId>& drained_switches,
                     std::vector<topo::CircuitId>& drained_circuits) = 0;

  /// Injected operation failure for the phase about to execute: returns the
  /// number of ElementOps of the phase's first block that were pushed
  /// before the step died (0 = failed cleanly before touching anything), or
  /// -1 for a successful attempt. `attempt` is 0 on the first try of a
  /// phase and increments per retry.
  virtual int phase_failure_ops(int phases_executed, int attempt) = 0;
};

/// Snapshot handed to ReplanOptions::observer after each executed phase,
/// while the topology is materialized at that executed intermediate state
/// (executed blocks plus active maintenance / fault drains applied). All
/// references are valid only during the callback.
struct PhaseObservation {
  int phases_executed = 0;  // 1-based count including this phase
  int step = 0;             // forecast step the phase executed at
  migration::ActionTypeId type = migration::kNoAction;
  int blocks = 0;           // blocks operated in this phase
  const core::CountVector& done;
  double executed_cost = 0.0;  // running cost including this phase
  topo::Topology& topo;        // materialized executed state
  const traffic::DemandSet& demands;  // ground-truth demands at `step`
};

/// Everything a killed run needs to restart bit-identically: the executed
/// counters, the active plan and the position inside it, and the consumed
/// failure injections. Serialized as "klotski.replan-checkpoint.v2" JSON
/// (see DESIGN.md "Chaos engine" and §11); v1 documents still load, with
/// the v2-only warm-state fields defaulting to zero.
struct ReplanCheckpoint {
  int phases_executed = 0;
  int step = 0;             // forecast step
  int next_phase = 0;       // index into the stored plan's phases()
  int planning_runs = 0;
  int last_plan_step = 0;
  int phase_retries = 0;    // total retried attempts so far
  bool fallback_active = false;
  int fallback_plans = 0;
  std::int32_t last_type = migration::kNoAction;
  double executed_cost = 0.0;
  std::uint64_t state_version = 0;  // diagnostic: state version at save
  core::CountVector done;
  /// The plan being executed (or, with replan_pending, the plan whose
  /// surviving suffix seeds the next round's warm repair); empty when there
  /// is nothing to carry — the resume then starts with a cold planning
  /// round, exactly like the uninterrupted run would have.
  std::vector<core::PlannedAction> plan_actions;
  double plan_cost = 0.0;
  std::string plan_planner;
  /// v2: the driver decided to re-plan right after this phase. On resume
  /// the stored plan is not executed; its suffix from next_phase becomes
  /// the warm-repair seed, reproducing the uninterrupted run's decision.
  bool replan_pending = false;
  /// v2 warm-state provenance: repair/fallback counters so a resumed run's
  /// totals match the uninterrupted run.
  int warm_attempts = 0;
  int warm_wins = 0;
  int fallback_full = 0;
  /// Failure injections already consumed (ReplanOptions::failing_phases
  /// entries must fire at most once per phase index).
  std::vector<int> consumed_failures;

  json::Value to_json() const;
  /// Throws std::invalid_argument("replan-checkpoint: …") on an unknown
  /// schema, a missing key, a wrong type, or an integer outside its field's
  /// range (counters and steps are non-negative ints, `done`, `last_type`
  /// and action pairs int32, `state_version` non-negative); the message
  /// names the field.
  static ReplanCheckpoint from_json(const json::Value& value);
};

struct ReplanOptions {
  CheckerConfig checker;
  core::PlannerOptions planner_options;
  /// Re-plan eagerly when the forecast moved by more than this fraction
  /// since the last planning run, even if the remaining plan still looks
  /// safe (operators prefer fresh plans over near-threshold ones).
  double demand_change_threshold = 0.10;
  /// Injected operation failures: phases (by global executed-phase index)
  /// whose first block fails and must be retried after re-planning (§7.2
  /// "failures during operation duration"). Each listed index fires at most
  /// once, even when listed repeatedly — a retried phase must be able to
  /// succeed. Prefer FaultInjector for richer failure schedules.
  std::vector<int> failing_phases;
  /// Concurrent routine maintenance (§7.2).
  std::vector<MaintenanceEvent> maintenance;

  /// Bounded retry-with-backoff: a failed phase attempt (or, under an
  /// injector, a failed planning round) waits
  /// min(backoff_steps << attempt, max_backoff_steps) forecast steps before
  /// the next try. After max_phase_retries failed attempts of one phase the
  /// run aborts with a reported failure.
  int max_phase_retries = 3;
  int backoff_steps = 1;
  int max_backoff_steps = 8;
  /// Graceful degradation: after this many planning runs the driver stops
  /// trusting the primary planner and switches to the conservative
  /// fallback. 0 = never degrade.
  int max_replans = 0;
  /// Fallback planner name for make_planner (a baselines planner).
  std::string fallback_planner = "mrc";

  /// Warm-start repair (DESIGN.md §11). When a re-plan triggers, the driver
  /// first tries to keep executing the surviving suffix of the current plan:
  /// the suffix is revalidated from scratch (fresh checker, current
  /// forecast/topology/overlay) and accepted when its cost stays within
  /// repair_cost_slack times an admissible lower bound of the from-scratch
  /// optimum. On rejection the full planning round still runs warm — its
  /// arena seeded from the suffix — so either path beats a cold restart.
  /// false = every re-plan is cold (the --no-warm-repair ablation; also what
  /// checkpoint-v1 era behavior was).
  bool warm_repair = true;
  double repair_cost_slack = 1.25;

  /// Chaos hook; nullptr = no injected faults.
  FaultInjector* injector = nullptr;
  /// Invoked after every executed phase with the materialized intermediate
  /// topology (invariant checking; adds materialization cost per phase).
  std::function<void(const PhaseObservation&)> observer;
  /// Invoked after every executed phase with a restartable checkpoint.
  std::function<void(const ReplanCheckpoint&)> checkpoint_sink;
  /// Cooperative stop (the serve daemon's graceful drain): polled after
  /// every executed phase, after checkpoint_sink has run for that phase.
  /// Returning true makes the driver return immediately with
  /// ReplanResult::stopped set; resume the run later from the last
  /// checkpoint. Must be cheap — it is called once per phase.
  std::function<bool()> stop_requested;
  /// Resume a previous run from its checkpoint instead of starting fresh.
  /// The caller must pass the same task / forecaster / options as the
  /// original run (the checkpoint stores execution position, not inputs).
  /// A checkpoint whose counters or plan do not fit the task (arity, done
  /// counts, action types, next_phase, blocks left) is rejected with
  /// std::invalid_argument before anything executes.
  const ReplanCheckpoint* resume = nullptr;
};

/// One planning round's latency record (bench_replan aggregates these).
/// Not checkpointed: determinism covers decisions, not timings.
struct ReplanRound {
  int step = 0;            // forecast step the round planned at
  bool warm = false;        // suffix repair won — no search ran
  bool warm_seeded = false;  // a full search ran, handed the suffix as seed
  double seconds = 0.0;     // wall clock of the whole round
};

struct ReplanResult {
  bool completed = false;
  /// True when the run ended because ReplanOptions::stop_requested asked it
  /// to (not a failure: the last checkpoint resumes it bit-identically).
  bool stopped = false;
  std::string failure;
  int phases_executed = 0;
  int replans = 0;
  double executed_cost = 0.0;  // cost of the actually executed sequence
  int phase_retries = 0;       // failed attempts that were retried
  int fallback_plans = 0;      // planning rounds served by the fallback
  bool used_fallback = false;
  /// Warm-repair accounting: attempts == wins + fallback_full (the
  /// metrics-check identity). Resumed runs restore these from the
  /// checkpoint, so totals match the uninterrupted run.
  int warm_attempts = 0;
  int warm_wins = 0;
  int fallback_full = 0;
  std::vector<ReplanRound> rounds;  // one entry per planning round
  std::vector<std::string> log;
};

/// Plans and executes `task` to completion, re-planning as needed.
/// The forecaster's step counter advances by one per executed phase (plus
/// backoff waits after failed attempts).
ReplanResult execute_with_replanning(migration::MigrationTask& task,
                                     core::Planner& planner,
                                     traffic::Forecaster& forecaster,
                                     const ReplanOptions& options = {});

}  // namespace klotski::pipeline
