// Model-based invariant checking for chaos trajectories.
//
// The chaos engine does not know what the *right* plan is under a fault
// script — but every intermediate topology the driver actually executes must
// satisfy a set of invariants regardless of which plan produced it:
//
//  1. Safety: the standard constraint stack (ports -> space/power -> demand)
//     passes on the materialized executed state under the ground-truth
//     demands of the step it executed at. Forecasts may be wrong; executed
//     states may not be.
//  2. A long-lived router equals a fresh one: an ECMP router that has lived
//     through the whole trajectory (liveness words keyed on the topology's
//     state version) produces bit-identical loads to a freshly constructed
//     router, which guards the contract that every state writer bumps the
//     version (2a); and Topology::liveness_words matches per-circuit
//     circuit_carries_traffic (2b).
//  3. Monotone progress: the done vector only ever grows, exactly by the
//     executed phase's block count in its type; steps never go backwards.
//  4. Cost accounting: the driver's running executed_cost equals an
//     independent re-accumulation through the CostModel, bit-for-bit, and
//     the final ReplanResult totals match the observed stream (including
//     the warm-repair identity attempts == wins + full fallbacks).
//
// The checker doubles as the trajectory recorder: one line per executed
// phase (type, blocks, step, state signature, cost) whose byte-equality
// across runs is the determinism and checkpoint-resume oracle.
#pragma once

#include <string>
#include <vector>

#include "klotski/core/cost_model.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/replan.h"
#include "klotski/traffic/ecmp.h"

namespace klotski::sim {

struct InvariantViolation {
  int phases_executed = 0;
  int step = 0;
  std::string what;
};

class InvariantChecker {
 public:
  /// `task` must be the task handed to execute_with_replanning; the checker
  /// keeps a persistent ECMP router on its topology for invariant 2a.
  InvariantChecker(migration::MigrationTask& task,
                   const pipeline::CheckerConfig& config,
                   const core::PlannerOptions& planner_options);

  /// Wire as ReplanOptions::observer.
  void observe(const pipeline::PhaseObservation& observation);

  /// Seeds the accounting state from a checkpoint so a resumed run can be
  /// checked mid-stream (trajectory lines then cover the resumed suffix).
  void seed_from(const pipeline::ReplanCheckpoint& checkpoint);

  /// Final accounting: the driver's result totals must match the observed
  /// stream. Call once after execute_with_replanning returns.
  void finish(const pipeline::ReplanResult& result);

  bool ok() const { return violations_.empty(); }
  const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  /// One line per executed phase, in order.
  const std::vector<std::string>& trajectory() const { return trajectory_; }

 private:
  void violation(const pipeline::PhaseObservation& observation,
                 std::string what);

  migration::MigrationTask* task_;
  pipeline::CheckerConfig config_;
  core::CostModel cost_;
  traffic::EcmpRouter persistent_router_;

  // Accounting state mirrored from the driver.
  core::CountVector prev_done_;
  int prev_phases_ = 0;
  int prev_step_ = -1;
  std::int32_t last_type_ = migration::kNoAction;
  double expected_cost_ = 0.0;

  std::vector<InvariantViolation> violations_;
  std::vector<std::string> trajectory_;
  static constexpr std::size_t kMaxViolations = 16;
};

}  // namespace klotski::sim
