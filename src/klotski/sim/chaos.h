// The chaos engine: seeded adversarial trajectories through the replan
// driver, with model-based invariant checking and a checkpoint-resume
// self-test (§7.1-§7.2 hardening).
//
// One chaos run = one seed: build a preset migration, generate the seed's
// FaultScript, and execute the migration through execute_with_replanning
// with the script injected, the InvariantChecker observing every executed
// phase, and every phase checkpointed. When the run completes, the engine
// round-trips a mid-run checkpoint through JSON, re-executes from it in a
// fresh world, and requires the resumed trajectory suffix, final cost and
// phase/replan counters to match the uninterrupted run byte-for-byte.
//
// Seeds are fully independent (no shared mutable state beyond thread-safe
// obs counters), so a sweep produces bit-identical verdicts regardless of
// the thread count — which the tier-1 determinism test asserts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "klotski/pipeline/edp.h"
#include "klotski/sim/fault_script.h"
#include "klotski/topo/presets.h"

namespace klotski::sim {

struct ChaosParams {
  /// Topology family and preset: Clos runs the preset's HGRID experiment,
  /// flat the partial forklift, reconf the mesh rewire (see
  /// pipeline::build_family_experiment).
  topo::TopologyFamily family = topo::TopologyFamily::kClos;
  topo::PresetId preset = topo::PresetId::kA;
  topo::PresetScale scale = topo::PresetScale::kReduced;
  std::string planner = "astar";

  double growth_per_step = 0.002;
  double demand_change_threshold = 0.10;

  /// Driver hardening knobs (see ReplanOptions). The retry budget defaults
  /// higher than the driver's own default so the backoff sequence
  /// (1+2+4+8+8+8 = 31 steps) outlasts any fault window the script
  /// schedules — surviving transient faults is the point of the run.
  int max_phase_retries = 6;
  int backoff_steps = 1;
  int max_backoff_steps = 8;
  int max_replans = 0;  // 0 = never degrade to the fallback
  std::string fallback_planner = "mrc";

  /// Warm-start replanning knobs (ReplanOptions; DESIGN.md §11). tier-1
  /// sweeps both settings and requires the same pass/fail verdicts on the
  /// sweeps it runs; elsewhere a kept suffix can change the outcome (flat b
  /// seed 2 and reconf c seed 118 pass warm and fail cold; ROADMAP item 4).
  bool warm_repair = true;
  double repair_cost_slack = 1.25;

  pipeline::CheckerConfig checker;
  core::PlannerOptions planner_options;

  /// Event counts and magnitudes; horizon/expected_phases are sized from
  /// the task automatically.
  FaultScriptParams faults;

  /// Kill-and-resume from a JSON round-tripped mid-run checkpoint and
  /// require a byte-identical continuation.
  bool checkpoint_self_test = true;
};

struct ChaosVerdict {
  std::uint64_t seed = 0;
  bool completed = false;      // the migration reached the target state
  bool invariants_ok = false;  // no InvariantChecker violation
  bool resume_ok = true;       // checkpoint resume matched (when tested)
  std::string failure;         // driver failure or first violation
  std::vector<std::string> violations;
  /// Newline-terminated per-phase trajectory (the determinism oracle).
  std::string trajectory;

  int phases = 0;
  int replans = 0;
  int phase_retries = 0;
  int fallback_plans = 0;
  double executed_cost = 0.0;

  /// Warm-repair accounting + per-round planning latencies (ReplanResult).
  int warm_attempts = 0;
  int warm_wins = 0;
  int fallback_full = 0;
  std::vector<pipeline::ReplanRound> rounds;

  bool passed() const { return completed && invariants_ok && resume_ok; }
};

/// Runs one seed to a verdict. Exceptions become failed verdicts, not
/// crashes. Deterministic: same seed + params => byte-identical verdict.
ChaosVerdict run_chaos_seed(std::uint64_t seed, const ChaosParams& params);

struct ChaosSweepResult {
  std::vector<ChaosVerdict> verdicts;  // in seed order
  int failures = 0;

  std::vector<std::uint64_t> failing_seeds() const {
    std::vector<std::uint64_t> out;
    for (const ChaosVerdict& v : verdicts) {
      if (!v.passed()) out.push_back(v.seed);
    }
    return out;
  }
};

/// Runs seeds [first_seed, first_seed + num_seeds) across `threads` worker
/// threads. Verdicts are independent of the thread count.
ChaosSweepResult run_chaos_sweep(std::uint64_t first_seed, int num_seeds,
                                 int threads, const ChaosParams& params);

}  // namespace klotski::sim
