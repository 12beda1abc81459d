// What-if capacity engine: Monte Carlo robustness sweeps over a finished
// plan (ROADMAP "what-if capacity engine"; the proactive counterpart of the
// §7.1 replanning loop).
//
// The planner commits to a forecast, but a migration runs for weeks while
// traffic grows and forecasts drift (§7.2). Before execution starts, the
// what-if engine samples N demand futures — per-trajectory organic growth,
// surge windows, and forecast-error windows, all drawn from the same
// generators the chaos engine uses (sim::make_fault_script demand events
// composed through traffic::Forecaster) — and re-validates every plan phase
// against each future. The report says what fraction of futures the plan
// survives, which phase breaks first and under what demand multiplier, the
// worst-case headroom per phase, and the uniform demand multiplier the plan
// tolerates (the "safe growth margin").
//
// The sweep walks phases, not trajectories: a worker takes a chunk of
// trajectories, materializes each phase once, runs the structural checks
// (ports, space/power) once, and then only the demand check per trajectory
// still safe. A phase is the origin with a plan prefix applied, a state a
// search reaches, so each worker opens the search scope a planner opens
// (core::SearchScope): on Clos those checks route on the symmetry
// quotient, with the fabric's verdicts and peaks; flat and reconf, whose
// partitions are discrete, route on the fabric. The margin is closed-form:
// ECMP loads are linear in the injected volume over a fixed DAG, so with U
// the largest peak utilization of the origin and every phase under the
// base demands, the plan holds up to theta / U.
//
// Determinism contract: the report is a pure function of (inputs, seed, N)
// — trajectory i's future is derived from hash_combine(seed, i) alone,
// workers claim chunks of trajectory indices from an atomic counter but
// store results by index, and aggregation runs serially in index order.
// Reports are byte-identical at any thread count, which tier-1 asserts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "klotski/core/plan.h"
#include "klotski/json/json.h"
#include "klotski/migration/task.h"
#include "klotski/pipeline/edp.h"

namespace klotski::whatif {

struct WhatIfParams {
  /// Number of sampled demand futures.
  int trajectories = 100;
  std::uint64_t seed = 0;
  /// Sweep worker threads, never more than there are trajectories; the
  /// report is invariant to this.
  int threads = 1;

  /// Per-trajectory organic growth per step, sampled uniformly.
  double growth_min = 0.0;
  double growth_max = 0.004;
  /// Demand surge windows per trajectory (sim::FaultScriptParams
  /// demand_events) and forecast-error windows (forecast_errors).
  int surges = 1;
  int forecast_errors = 1;
  double surge_factor_min = 0.8;
  double surge_factor_max = 1.5;
  double bias_factor_min = 0.85;
  double bias_factor_max = 1.2;

  /// Constraint stack the phases are re-validated against (theta, funneling,
  /// routing mode) — same shape the planner used.
  pipeline::CheckerConfig checker;

  /// Cap of the safe growth margin: a plan tolerating this uniform demand
  /// multiplier reports it with margin_saturated set.
  double margin_max = 4.0;
};

/// Outcome of validating the plan against one sampled future.
struct TrajectoryOutcome {
  bool completed = false;  // false only when a stop request skipped it
  bool safe = false;
  /// Broke without exceeding theta: a no-path demand, or a structural
  /// (ports, space/power) violation, which reports utilization 0.
  bool unroutable = false;
  int first_break_phase = -1;    // phase index of the first violation
  double break_multiplier = 0.0; // total-volume multiplier at the break step
  double break_utilization = 0.0; // the breaking state's peak utilization
  double min_headroom = 0.0;     // min over phases of theta - utilization
  /// Peak utilization after each executed phase, up to (and including) the
  /// breaking phase: the state's full peak, on a theta break too.
  std::vector<double> phase_utilization;
};

struct PhaseStats {
  int phase = 0;
  std::string action;  // action-type label of the phase
  int blocks = 0;
  long long evaluated = 0;  // trajectories that reached this phase
  long long unsafe = 0;     // trajectories that first broke here
  double worst_utilization = 0.0;
  double min_headroom = 0.0;  // theta - worst_utilization
};

struct WhatIfReport {
  int trajectories = 0;      // requested
  int trajectories_run = 0;  // completed (== requested unless stopped)
  std::uint64_t seed = 0;
  bool stopped = false;
  int unsafe = 0;
  int unroutable = 0;
  double safe_fraction = 1.0;
  /// The weakest observed break: the unsafe trajectory with the smallest
  /// demand multiplier at its breaking step. first_break_phase is -1 when
  /// every trajectory stayed safe.
  int first_break_phase = -1;
  double first_break_multiplier = 0.0;
  /// break_histogram[p] = trajectories whose first violation was phase p.
  std::vector<long long> break_histogram;
  std::vector<PhaseStats> phases;
  /// Largest uniform demand multiplier (within margin_max) under which the
  /// origin and every phase stay safe: theta / U for U the largest peak
  /// utilization under the base demands, 0 when a state fails a structural
  /// check or has an unroutable demand. margin_saturated means safe even
  /// at margin_max.
  double safe_growth_margin = 1.0;
  bool margin_saturated = false;
};

/// Builds a fresh, identical copy of the migration under test. Called once
/// per sweep worker (the walk mutates topology state), so it must be
/// deterministic: every returned case must be element-for-element identical.
using CaseFactory = std::function<migration::MigrationCase()>;

/// Runs the sweep, then the margin pass on the first worker's case. `plan`
/// must be a valid plan for the factory's case (block indices resolve
/// against it). `stop` is an optional cooperative stop flag polled between
/// trajectory chunks; a stopped run reports only the fully walked
/// trajectories, with stopped = true. Throws std::invalid_argument on bad
/// params.
WhatIfReport run_whatif(const CaseFactory& factory, const core::Plan& plan,
                        const WhatIfParams& params,
                        const std::atomic<bool>* stop = nullptr);

/// The klotski.whatif.v1 report document.
json::Value report_to_json(const WhatIfReport& report,
                           const WhatIfParams& params);

/// The exact bytes klotski_whatif writes: dump(report_to_json, 2) + "\n".
/// The serve method caches and returns these same bytes, so CLI and daemon
/// reports are byte-identical for the same (inputs, seed, N).
std::string report_text(const WhatIfReport& report,
                        const WhatIfParams& params);

}  // namespace klotski::whatif
