#include "klotski/whatif/whatif.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "klotski/constraints/demand_checker.h"
#include "klotski/core/search_scope.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/sim/fault_script.h"
#include "klotski/traffic/forecast.h"
#include "klotski/util/hash.h"
#include "klotski/util/rng.h"
#include "klotski/util/thread_budget.h"

namespace klotski::whatif {

namespace {

/// Salt separating the what-if trajectory seed stream from every other
/// consumer of the base seed (chaos scripts, traffic generators).
constexpr std::uint64_t kTrajectorySalt = 0x57A7'1F00'D001ULL;
constexpr std::uint64_t kGrowthSalt = 0x6807'7801ULL;

/// Trajectories a worker claims at most at once: each chunk walks the
/// phases once, so larger chunks share more structural checks.
constexpr int kMaxChunk = 32;

/// One worker's validation context: its own case (the walk materializes
/// phases onto the topology), checker stack and evaluator. The verdict
/// cache stays off — it is keyed on count vectors only, which is unsound
/// when the demand set changes under the same counts, exactly what every
/// trajectory step does.
///
/// Every state the walk checks is a plan prefix, a state a search reaches,
/// so the validator holds a search scope for its lifetime. A forecast
/// scales volumes only, so every trajectory's demand set binds to the
/// scope's quotient (DESIGN.md §13).
struct Validator {
  migration::MigrationCase mig;
  pipeline::CheckerBundle bundle;
  constraints::DemandChecker* demand_checker = nullptr;
  std::unique_ptr<core::StateEvaluator> evaluator;
  std::unique_ptr<core::SearchScope> scope;  // closed before the rest goes

  Validator(const CaseFactory& factory, const pipeline::CheckerConfig& config)
      : mig(factory()) {
    bundle = pipeline::make_standard_checker(mig.task, config);
    demand_checker = dynamic_cast<constraints::DemandChecker*>(
        &bundle.checker->checker(bundle.checker->size() - 1));
    if (demand_checker == nullptr) {
      throw std::logic_error(
          "whatif: standard checker stack has no demand checker");
    }
    evaluator = std::make_unique<core::StateEvaluator>(
        mig.task, *bundle.checker, /*use_cache=*/false);
    scope = std::make_unique<core::SearchScope>(*evaluator, *bundle.checker);
  }

  /// Materializes `done` and runs every checker of the stack before the
  /// demand checker (ports, space/power): the verdicts that do not depend
  /// on the demands, shared by every trajectory at a phase.
  bool materialize_structure(const core::CountVector& done) {
    evaluator->materialize(done);
    for (std::size_t i = 0; i + 1 < bundle.checker->size(); ++i) {
      if (!bundle.checker->checker(i).check(*mig.task.topo).satisfied) {
        return false;
      }
    }
    return true;
  }

  /// The demand check of the materialized state under `demands`; one
  /// logical check of the standard stack, counted as CompositeChecker
  /// counts its own.
  bool demands_safe(traffic::DemandSet demands) {
    static obs::Counter& checks =
        obs::Registry::global().counter("checker.composite.checks");
    checks.inc();
    demand_checker->set_demands(std::move(demands));
    return demand_checker->check(*mig.task.topo).satisfied;
  }
};

/// The sampled future of trajectory `index`: a Forecaster over the task's
/// base demands with per-trajectory growth, surge windows and forecast-error
/// windows. Pure function of (params.seed, index, task shape).
traffic::Forecaster sample_future(const WhatIfParams& params, int index,
                                  const migration::MigrationTask& task,
                                  int num_phases) {
  const std::uint64_t seed = util::hash_combine(
      util::hash_combine(params.seed, kTrajectorySalt),
      static_cast<std::uint64_t>(index));

  util::Rng growth_rng(util::hash_combine(seed, kGrowthSalt));
  const double growth =
      growth_rng.uniform_real(params.growth_min, params.growth_max);

  sim::FaultScriptParams script_params;
  script_params.horizon = std::max(8, num_phases + 2);
  script_params.expected_phases = std::max(1, num_phases);
  // Demand events only: the what-if question is about traffic futures, not
  // element faults (those are the chaos engine's jurisdiction).
  script_params.circuit_degrades = 0;
  script_params.circuit_failures = 0;
  script_params.switch_drains = 0;
  script_params.step_failures = 0;
  script_params.demand_events = params.surges;
  script_params.forecast_errors = params.forecast_errors;
  script_params.surge_factor_min = params.surge_factor_min;
  script_params.surge_factor_max = params.surge_factor_max;
  script_params.bias_factor_min = params.bias_factor_min;
  script_params.bias_factor_max = params.bias_factor_max;
  const sim::FaultScript script =
      sim::make_fault_script(seed, task, script_params);

  traffic::Forecaster forecaster(task.demands, growth);
  for (const traffic::SurgeEvent& surge : script.surges) {
    forecaster.add_surge(surge);
  }
  for (const traffic::ForecastBias& bias : script.biases) {
    forecaster.add_bias(bias);
  }
  return forecaster;
}

/// Validates trajectories [begin, end) phase-major. Phase p is checked
/// under the demand set of step p + 1 (step 0 is the original network
/// under the base demands, already validated by the plan's audit): the
/// phase is materialized and structurally checked once, then demand-checked
/// under every trajectory still safe. A trajectory stops at its first
/// violation — that is where execution would halt and hand off to the
/// replanning loop. Outcomes equal a trajectory-at-a-time walk bit for bit.
void walk_chunk(const WhatIfParams& params, int begin, int end, Validator& v,
                const std::vector<core::Phase>& phases,
                std::vector<TrajectoryOutcome>& outcomes) {
  obs::Span span("whatif/chunk");
  const migration::MigrationTask& task = v.mig.task;
  const double theta = params.checker.demand.max_utilization;
  const double base_volume = traffic::total_volume(task.demands);

  std::vector<traffic::Forecaster> futures;
  std::vector<int> live;  // trajectories still safe, ascending
  for (int i = begin; i < end; ++i) {
    futures.push_back(
        sample_future(params, i, task, static_cast<int>(phases.size())));
    TrajectoryOutcome& out = outcomes[static_cast<std::size_t>(i)];
    out.completed = true;
    out.safe = true;
    out.min_headroom = theta;
    out.phase_utilization.reserve(phases.size());
    live.push_back(i);
  }

  core::CountVector done(
      static_cast<std::size_t>(task.num_action_types()), 0);
  for (std::size_t p = 0; p < phases.size() && !live.empty(); ++p) {
    const int step = static_cast<int>(p) + 1;
    done[static_cast<std::size_t>(phases[p].type)] +=
        static_cast<std::int32_t>(phases[p].block_indices.size());
    const bool structure_ok = v.materialize_structure(done);

    std::size_t kept = 0;
    for (const int i : live) {
      TrajectoryOutcome& out = outcomes[static_cast<std::size_t>(i)];
      traffic::DemandSet demands =
          futures[static_cast<std::size_t>(i - begin)].forecast_at_step(step);
      const double volume = traffic::total_volume(demands);
      const bool ok = structure_ok && v.demands_safe(std::move(demands));
      // A structural break never ran the demand checker: its utilization
      // is 0, not whatever another trajectory's check left behind.
      const double util =
          structure_ok ? v.demand_checker->last_max_utilization() : 0.0;
      out.phase_utilization.push_back(util);
      if (ok) {
        out.min_headroom = std::min(out.min_headroom, theta - util);
        live[kept++] = i;
        continue;
      }
      out.safe = false;
      out.first_break_phase = static_cast<int>(p);
      out.break_utilization = util;
      out.break_multiplier = base_volume > 0.0 ? volume / base_volume : 0.0;
      // The demand checker scans utilization only after every demand
      // routed; a failure that never exceeded theta is a no-path demand
      // (or a structural violation).
      out.unroutable = util <= theta;
      if (!out.unroutable) {
        out.min_headroom = std::min(out.min_headroom, theta - util);
      }
    }
    live.resize(kept);
  }
}

/// The safe growth margin in closed form. Checks the origin and every
/// phase once under the base demands. ECMP loads are linear in the injected
/// volume over a fixed DAG, so scaling every demand by m scales every
/// utilization (funneling included) by m, and the plan stays safe up to
/// m = theta / U, U the largest last_max_utilization() over those states
/// (a full peak whatever the verdict) — below 1 when the plan is already
/// unsafe under its own forecast (it was planned under different knobs
/// than this sweep validates with). A structural violation or an
/// unroutable demand does not scale away: the margin is 0.
void margin_pass(Validator& v, const WhatIfParams& params,
                 const std::vector<core::Phase>& phases,
                 WhatIfReport& report) {
  obs::Span span("whatif/margin");
  const double theta = params.checker.demand.max_utilization;
  report.safe_growth_margin = 0.0;
  report.margin_saturated = false;

  double peak = 0.0;
  core::CountVector done(
      static_cast<std::size_t>(v.mig.task.num_action_types()), 0);
  for (std::size_t p = 0; p <= phases.size(); ++p) {
    if (p > 0) {
      done[static_cast<std::size_t>(phases[p - 1].type)] +=
          static_cast<std::int32_t>(phases[p - 1].block_indices.size());
    }
    if (!v.materialize_structure(done)) return;
    const bool safe = v.demands_safe(v.mig.task.demands);
    // A failure with no circuit over theta had an unroutable demand.
    const double util = v.demand_checker->last_max_utilization();
    if (!safe && util <= theta) return;
    peak = std::max(peak, util);
  }
  if (params.margin_max * peak <= theta) {
    report.safe_growth_margin = params.margin_max;
    report.margin_saturated = true;
  } else {
    report.safe_growth_margin = theta / peak;
  }
}

void validate_params(const WhatIfParams& params) {
  if (params.trajectories < 1) {
    throw std::invalid_argument("whatif: trajectories must be >= 1");
  }
  if (params.growth_min < -1.0 || params.growth_max < params.growth_min) {
    throw std::invalid_argument("whatif: bad growth range");
  }
  if (params.surges < 0 || params.forecast_errors < 0) {
    throw std::invalid_argument("whatif: event counts must be >= 0");
  }
  if (params.surge_factor_min <= 0.0 ||
      params.surge_factor_max < params.surge_factor_min) {
    throw std::invalid_argument("whatif: bad surge factor range");
  }
  if (params.bias_factor_min <= 0.0 ||
      params.bias_factor_max < params.bias_factor_min) {
    throw std::invalid_argument("whatif: bad bias factor range");
  }
  if (params.margin_max < 1.0) {
    throw std::invalid_argument("whatif: margin_max must be >= 1");
  }
}

}  // namespace

WhatIfReport run_whatif(const CaseFactory& factory, const core::Plan& plan,
                        const WhatIfParams& params,
                        const std::atomic<bool>* stop) {
  validate_params(params);
  obs::Span sweep_span("whatif/sweep");
  obs::Registry::global().counter("whatif.runs").inc();

  const std::vector<core::Phase> phases = plan.phases();
  const int num_trajectories = params.trajectories;
  std::vector<TrajectoryOutcome> outcomes(
      static_cast<std::size_t>(num_trajectories));

  // Workers claim chunks of consecutive trajectory indices from the shared
  // counter and store results by index; per-worker state (case, checker
  // stack, evaluator) is fully private, so the outcome vector is a pure
  // function of the seed. The chunk size only changes which trajectories
  // share a phase walk, never an outcome.
  const int num_workers =
      util::split_thread_budget(params.threads, 1, num_trajectories).outer;
  const int chunk = std::min(
      kMaxChunk, (num_trajectories + num_workers - 1) / num_workers);

  std::atomic<int> next{0};
  static obs::Counter& trajectories_counter =
      obs::Registry::global().counter("whatif.trajectories");
  // A throwing walk (a forecast whose demands leave the routers'
  // fixed-point range) stops every worker at its next chunk. Once all have
  // joined, the error of the lowest failing chunk is rethrown. Every chunk
  // below it was claimed earlier and walked to its end, so which error
  // surfaces does not depend on thread timing.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  int error_begin = num_trajectories;
  std::exception_ptr error;
  const auto work = [&](std::optional<Validator>& v) {
    int begin = -1;  // -1 while the validator is being built
    try {
      v.emplace(factory, params.checker);
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) return;
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
        begin = next.fetch_add(chunk);
        if (begin >= num_trajectories) return;
        const int end = std::min(num_trajectories, begin + chunk);
        walk_chunk(params, begin, end, *v, phases, outcomes);
        trajectories_counter.inc(end - begin);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (begin < error_begin) {
        error_begin = begin;
        error = std::current_exception();
      }
      failed.store(true, std::memory_order_relaxed);
    }
  };
  // Worker 0 runs on this thread and its validator outlives the pool: the
  // action labels and the margin pass reuse its case instead of building
  // another one.
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_workers - 1));
  for (int i = 1; i < num_workers; ++i) {
    workers.emplace_back([&] {
      std::optional<Validator> v;
      work(v);
    });
  }
  std::optional<Validator> first;
  work(first);
  for (std::thread& w : workers) w.join();
  if (error) std::rethrow_exception(error);

  // Serial aggregation in index order: every fold over doubles happens in
  // the same sequence at any thread count.
  WhatIfReport report;
  report.trajectories = num_trajectories;
  report.seed = params.seed;
  report.break_histogram.assign(std::max<std::size_t>(phases.size(), 1), 0);
  const double theta = params.checker.demand.max_utilization;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    PhaseStats row;
    row.phase = static_cast<int>(p);
    row.action =
        first->mig.task.action_types[static_cast<std::size_t>(phases[p].type)]
            .label;
    row.blocks = static_cast<int>(phases[p].block_indices.size());
    row.worst_utilization = 0.0;
    row.min_headroom = theta;
    report.phases.push_back(std::move(row));
  }
  for (const TrajectoryOutcome& t : outcomes) {
    if (!t.completed) {
      report.stopped = true;
      continue;
    }
    ++report.trajectories_run;
    for (std::size_t p = 0; p < t.phase_utilization.size(); ++p) {
      PhaseStats& row = report.phases[p];
      ++row.evaluated;
      const bool broke_here =
          !t.safe && t.first_break_phase == static_cast<int>(p);
      // An unroutable break reports utilization 0, which says nothing
      // about headroom; keep it out of the worst-case fold.
      if (!(broke_here && t.unroutable)) {
        row.worst_utilization =
            std::max(row.worst_utilization, t.phase_utilization[p]);
        row.min_headroom =
            std::min(row.min_headroom, theta - t.phase_utilization[p]);
      }
      if (broke_here) ++row.unsafe;
    }
    if (!t.safe) {
      ++report.unsafe;
      if (t.unroutable) ++report.unroutable;
      ++report.break_histogram[static_cast<std::size_t>(
          std::max(0, t.first_break_phase))];
      if (report.first_break_phase < 0 ||
          t.break_multiplier < report.first_break_multiplier) {
        report.first_break_phase = t.first_break_phase;
        report.first_break_multiplier = t.break_multiplier;
      }
    }
  }
  report.safe_fraction =
      report.trajectories_run > 0
          ? static_cast<double>(report.trajectories_run - report.unsafe) /
                static_cast<double>(report.trajectories_run)
          : 1.0;
  obs::Registry::global().counter("whatif.unsafe").inc(report.unsafe);
  if (report.unroutable > 0) {
    obs::Registry::global()
        .counter("whatif.unroutable")
        .inc(report.unroutable);
  }

  // Delta materialization back from the walk's last phase is bit-identical
  // to a replay from the original state.
  margin_pass(*first, params, phases, report);
  return report;
}

json::Value report_to_json(const WhatIfReport& report,
                           const WhatIfParams& params) {
  json::Object doc;
  doc["schema"] = "klotski.whatif.v1";
  doc["trajectories"] = report.trajectories;
  doc["trajectories_run"] = report.trajectories_run;
  doc["seed"] = static_cast<std::int64_t>(report.seed);
  if (report.stopped) doc["stopped"] = true;

  json::Object sampling;
  sampling["theta"] = params.checker.demand.max_utilization;
  sampling["growth_min"] = params.growth_min;
  sampling["growth_max"] = params.growth_max;
  sampling["surges"] = params.surges;
  sampling["forecast_errors"] = params.forecast_errors;
  sampling["surge_factor_min"] = params.surge_factor_min;
  sampling["surge_factor_max"] = params.surge_factor_max;
  sampling["bias_factor_min"] = params.bias_factor_min;
  sampling["bias_factor_max"] = params.bias_factor_max;
  doc["sampling"] = json::Value(std::move(sampling));

  doc["safe_fraction"] = report.safe_fraction;
  doc["unsafe"] = report.unsafe;
  doc["unroutable"] = report.unroutable;
  if (report.first_break_phase >= 0) {
    json::Object first_break;
    first_break["phase"] = report.first_break_phase;
    first_break["multiplier"] = report.first_break_multiplier;
    doc["first_break"] = json::Value(std::move(first_break));
  }
  json::Array histogram;
  for (std::size_t p = 0; p < report.break_histogram.size(); ++p) {
    if (report.break_histogram[p] == 0) continue;
    json::Object bin;
    bin["phase"] = static_cast<std::int64_t>(p);
    bin["count"] = static_cast<std::int64_t>(report.break_histogram[p]);
    histogram.push_back(json::Value(std::move(bin)));
  }
  doc["break_histogram"] = std::move(histogram);

  json::Array phase_rows;
  for (const PhaseStats& row : report.phases) {
    json::Object out;
    out["phase"] = row.phase;
    out["action"] = row.action;
    out["blocks"] = row.blocks;
    out["evaluated"] = static_cast<std::int64_t>(row.evaluated);
    out["unsafe"] = static_cast<std::int64_t>(row.unsafe);
    out["worst_utilization"] = row.worst_utilization;
    out["min_headroom"] = row.min_headroom;
    phase_rows.push_back(json::Value(std::move(out)));
  }
  doc["phases"] = std::move(phase_rows);

  doc["safe_growth_margin"] = report.safe_growth_margin;
  doc["margin_saturated"] = report.margin_saturated;
  return json::Value(std::move(doc));
}

std::string report_text(const WhatIfReport& report,
                        const WhatIfParams& params) {
  return json::dump(report_to_json(report, params), 2) + "\n";
}

}  // namespace klotski::whatif
