#include "klotski/serve/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "klotski/json/canonical.h"
#include "klotski/npd/npd_io.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/pipeline/replan.h"
#include "klotski/sim/chaos.h"
#include "klotski/traffic/demand_io.h"
#include "klotski/traffic/forecast.h"
#include "klotski/whatif/whatif.h"

namespace klotski::serve {

namespace {

/// A seed parameter in [0, INT64_MAX]: a negative one would wrap to a
/// huge uint64 seed.
std::uint64_t get_seed(const json::Value& params, const char* key) {
  return static_cast<std::uint64_t>(params.get_int_in(
      key, 0, 0, std::numeric_limits<std::int64_t>::max()));
}

/// Shared tuning knobs of plan/audit/replan requests, with the same
/// defaults as the klotski_plan flags.
struct PlanKnobs {
  std::string planner = "astar";
  double theta = 0.75;
  double alpha = 0.0;
  std::string routing = "ecmp";
  double funneling = 0.0;
  double deadline = 0.0;
};

PlanKnobs parse_knobs(const json::Value& params) {
  PlanKnobs knobs;
  knobs.planner = params.get_string("planner", "astar");
  knobs.theta = params.get_double("theta", 0.75);
  knobs.alpha = params.get_double("alpha", 0.0);
  knobs.routing = params.get_string("routing", "ecmp");
  knobs.funneling = params.get_double("funneling", 0.0);
  knobs.deadline = params.get_double("deadline", 0.0);
  if (knobs.routing != "ecmp" && knobs.routing != "wcmp") {
    throw std::invalid_argument("unknown routing '" + knobs.routing + "'");
  }
  // A negative budget would silently mean "none". Theta and the funneling
  // margin are checked where every checker is built
  // (pipeline::make_standard_checker).
  if (!(knobs.deadline >= 0.0 && std::isfinite(knobs.deadline))) {
    throw std::invalid_argument("params.deadline must be finite and >= 0");
  }
  return knobs;
}

pipeline::CheckerConfig checker_config_for(const PlanKnobs& knobs) {
  pipeline::CheckerConfig config;
  config.demand.max_utilization = knobs.theta;
  config.demand.funneling_margin = knobs.funneling;
  if (knobs.routing == "wcmp") {
    config.routing = traffic::SplitMode::kCapacityWeighted;
  }
  return config;
}

const json::Value& require_object(const json::Value& params,
                                  const std::string& key) {
  const json::Value* value = params.as_object().find(key);
  if (value == nullptr || !value->is_object()) {
    throw std::invalid_argument("params." + key +
                                " must be a JSON object");
  }
  return *value;
}

migration::MigrationCase case_from_params(const json::Value& params) {
  const npd::NpdDocument doc = npd::from_json(require_object(params, "npd"));
  migration::MigrationCase mig = npd::build_case(doc);
  if (const json::Value* demands = params.as_object().find("demands")) {
    mig.task.demands =
        traffic::demands_from_json(*mig.task.topo, *demands);
  }
  return mig;
}

/// Sampling knobs of the whatif method, same names and defaults as the
/// klotski_whatif flags (the remote mode forwards them verbatim). Thread
/// counts are deliberately absent: reports are thread-invariant, so the
/// daemon supplies its own budget and the cache key stays portable.
whatif::WhatIfParams whatif_params_from(const json::Value& params) {
  whatif::WhatIfParams out;
  out.trajectories = params.get_count("trajectories", 100);
  out.seed = get_seed(params, "seed");
  out.growth_min = params.get_double("growth_min", 0.0);
  out.growth_max = params.get_double("growth_max", 0.004);
  out.surges = params.get_count("surges", 1);
  out.forecast_errors = params.get_count("forecast_errors", 1);
  out.surge_factor_min = params.get_double("surge_factor_min", 0.8);
  out.surge_factor_max = params.get_double("surge_factor_max", 1.5);
  out.bias_factor_min = params.get_double("bias_factor_min", 0.85);
  out.bias_factor_max = params.get_double("bias_factor_max", 1.2);
  out.margin_max = params.get_double("margin_max", 4.0);
  out.checker = checker_config_for(parse_knobs(params));
  return out;
}

topo::PresetId preset_from(const json::Value& params) {
  const std::string text = params.get_string("preset", "a");
  if (text == "a") return topo::PresetId::kA;
  if (text == "b") return topo::PresetId::kB;
  if (text == "c") return topo::PresetId::kC;
  if (text == "d") return topo::PresetId::kD;
  if (text == "e") return topo::PresetId::kE;
  throw std::invalid_argument("unknown preset '" + text + "' (want a..e)");
}

/// A plan response carrying the cached (or just computed) plan `text`.
/// Hits on the connection thread and in run_plan go through here, so both
/// paths answer the same bytes.
Response plan_response(const std::string& id, const std::string& key,
                       const std::string& text, bool cached) {
  json::Object result;
  result["cache_key"] = key;
  // The exact bytes klotski_plan would write, as a parsed document: a
  // client re-dumping result.plan at indent 2 plus a trailing newline
  // recovers them byte-for-byte (dump∘parse∘dump is stable).
  result["plan"] = json::parse(text);
  return Response::make_ok(id, json::Value(std::move(result)), cached);
}

}  // namespace

json::Value plan_cache_key_doc(const json::Value& params) {
  const PlanKnobs knobs = parse_knobs(params);
  json::Object key;
  key["schema"] = "klotski.serve.plan-key.v1";
  // Re-serializing the parsed NPD applies defaults and drops formatting, so
  // two spellings of the same region hash identically.
  key["npd"] = npd::to_json(npd::from_json(require_object(params, "npd")));
  key["planner"] = knobs.planner;
  key["theta"] = knobs.theta;
  key["alpha"] = knobs.alpha;
  key["routing"] = knobs.routing;
  key["funneling"] = knobs.funneling;
  key["deadline"] = knobs.deadline;
  if (const json::Value* demands = params.as_object().find("demands")) {
    key["demands"] = *demands;
  }
  return json::Value(std::move(key));
}

std::string plan_cache_key(const json::Value& params) {
  return json::content_hash(plan_cache_key_doc(params));
}

json::Value whatif_cache_key_doc(const json::Value& params) {
  const whatif::WhatIfParams wp = whatif_params_from(params);
  const PlanKnobs knobs = parse_knobs(params);
  json::Object key;
  // The schema string participates in the content hash, so whatif keys can
  // never collide with plan keys inside the shared PlanCache. v2: the safe
  // growth margin became closed-form, so v1 reports (bisected margins,
  // possibly spilled to disk) are never served for a v2 request. v3: a
  // theta break reports the state's full peak utilization, so v2 reports
  // (partial peaks that depended on scan order) are never served either.
  key["schema"] = "klotski.serve.whatif-key.v3";
  key["npd"] = npd::to_json(npd::from_json(require_object(params, "npd")));
  key["plan"] = require_object(params, "plan");
  key["theta"] = knobs.theta;
  key["routing"] = knobs.routing;
  key["funneling"] = knobs.funneling;
  key["trajectories"] = wp.trajectories;
  key["seed"] = static_cast<std::int64_t>(wp.seed);
  key["growth_min"] = wp.growth_min;
  key["growth_max"] = wp.growth_max;
  key["surges"] = wp.surges;
  key["forecast_errors"] = wp.forecast_errors;
  key["surge_factor_min"] = wp.surge_factor_min;
  key["surge_factor_max"] = wp.surge_factor_max;
  key["bias_factor_min"] = wp.bias_factor_min;
  key["bias_factor_max"] = wp.bias_factor_max;
  key["margin_max"] = wp.margin_max;
  if (const json::Value* demands = params.as_object().find("demands")) {
    key["demands"] = *demands;
  }
  return json::Value(std::move(key));
}

PlanService::PlanService(const Options& options)
    : options_(options), cache_(options.cache) {}

Response PlanService::execute(const Request& request,
                              const std::atomic<bool>& stop) {
  try {
    if (request.method == "plan") {
      return run_plan(request, plan_cache_key(request.params));
    }
    if (request.method == "audit") return run_audit(request);
    if (request.method == "chaos") return run_chaos(request, stop);
    if (request.method == "replan") return run_replan(request, stop);
    if (request.method == "whatif") return run_whatif(request, stop);
    return Response::make_error(
        request.id, "unknown method '" + request.method + "'");
  } catch (const std::exception& e) {
    return Response::make_error(request.id, e.what());
  }
}

std::optional<Response> PlanService::cached_plan(const Request& request,
                                                 const std::string& key) {
  std::optional<std::string> text = cache_.find_completed(key);
  if (!text) return std::nullopt;
  return plan_response(request.id, key, *text, true);
}

std::string PlanService::compute_plan_text(const json::Value& params) {
  const PlanKnobs knobs = parse_knobs(params);
  migration::MigrationCase mig = case_from_params(params);
  migration::MigrationTask& task = mig.task;

  const pipeline::CheckerConfig checker_config = checker_config_for(knobs);

  core::PlannerOptions planner_options;
  planner_options.alpha = knobs.alpha;
  planner_options.deadline_seconds = knobs.deadline;

  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(task, checker_config);
  auto planner = pipeline::make_planner(knobs.planner);

  obs::Registry::global().counter("serve.plan_runs").inc();
  core::Plan plan;
  {
    obs::Span span("serve.plan_run");
    plan = planner->plan(task, *bundle.checker, planner_options);
  }
  if (!plan.found) {
    throw std::runtime_error("no plan: " + plan.failure);
  }

  // Same pre-emit audit as the CLI: nothing leaves the service without an
  // independent safety check (§7.2).
  pipeline::CheckerBundle audit_bundle =
      pipeline::make_standard_checker(task, checker_config);
  const pipeline::AuditReport audit =
      pipeline::audit_plan(task, *audit_bundle.checker, plan);
  if (!audit.ok) {
    std::string message = "plan failed the safety audit:";
    for (const std::string& issue : audit.issues) {
      message += " " + issue + ";";
    }
    throw std::runtime_error(message);
  }

  return json::dump(pipeline::plan_to_json(task, plan), 2) + "\n";
}

Response PlanService::run_plan(const Request& request,
                               const std::string& key) {
  PlanCache::Lookup lookup = cache_.acquire(key);
  std::string text;
  bool cached = true;
  switch (lookup.outcome) {
    case PlanCache::Outcome::kHit:
      text = lookup.text;
      break;
    case PlanCache::Outcome::kWait:
      text = cache_.wait(lookup.entry);
      break;
    case PlanCache::Outcome::kOwner:
      // Failures are delivered to this flight's waiters and never cached.
      try {
        text = compute_plan_text(request.params);
      } catch (const std::exception& e) {
        cache_.fail(lookup.entry, e.what());
        throw;
      } catch (...) {
        cache_.fail(lookup.entry, "unknown error");
        throw;
      }
      cache_.fulfill(lookup.entry, text);
      cached = false;
      break;
  }
  return plan_response(request.id, key, text, cached);
}

Response PlanService::run_audit(const Request& request) {
  const json::Value& params = request.params;
  const PlanKnobs knobs = parse_knobs(params);
  migration::MigrationCase mig = case_from_params(params);
  migration::MigrationTask& task = mig.task;

  const core::Plan plan =
      pipeline::plan_from_json(task, require_object(params, "plan"));
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(task, checker_config_for(knobs));
  const pipeline::AuditReport audit = pipeline::audit_plan(
      task, *bundle.checker, plan,
      params.get_bool("check_every_action", false));

  json::Object result;
  result["ok"] = audit.ok;
  result["phases_checked"] = audit.phases_checked;
  json::Array issues;
  for (const std::string& issue : audit.issues) issues.push_back(issue);
  result["issues"] = std::move(issues);
  return Response::make_ok(request.id, json::Value(std::move(result)));
}

namespace {

/// Median planning-round latency in milliseconds; 0 when no rounds ran.
double median_round_ms(std::vector<double> seconds) {
  if (seconds.empty()) return 0.0;
  const std::size_t mid = seconds.size() / 2;
  std::nth_element(seconds.begin(),
                   seconds.begin() + static_cast<std::ptrdiff_t>(mid),
                   seconds.end());
  return seconds[mid] * 1e3;
}

}  // namespace

Response PlanService::run_chaos(const Request& request,
                                const std::atomic<bool>& stop) {
  const json::Value& params = request.params;
  sim::ChaosParams chaos;
  chaos.family =
      topo::family_from_string(params.get_string("family", "clos"));
  chaos.preset = preset_from(params);
  if (params.get_string("scale", "reduced") == "full") {
    chaos.scale = topo::PresetScale::kFull;
  }
  chaos.planner = params.get_string("planner", "astar");
  chaos.checker.demand.max_utilization = params.get_double("theta", 0.75);
  chaos.growth_per_step = params.get_double("growth", 0.002);
  chaos.max_replans = params.get_count("max_replans", 0);
  chaos.max_phase_retries = params.get_count("retries", 6);
  chaos.checkpoint_self_test = params.get_bool("resume_check", true);
  chaos.warm_repair = !params.get_bool("no_warm_repair", false);
  chaos.repair_cost_slack = params.get_double("repair_cost_slack", 1.25);
  // Fault-script knobs, same names and defaults as klotski_chaos — the
  // remote mode (klotski_chaos --connect) forwards its flags verbatim.
  chaos.faults.circuit_degrades = params.get_count("degrades", 2);
  chaos.faults.circuit_failures = params.get_count("circuit_failures", 1);
  chaos.faults.switch_drains = params.get_count("drains", 1);
  chaos.faults.step_failures = params.get_count("step_failures", 2);
  chaos.faults.demand_events = params.get_count("surges", 1);
  chaos.faults.forecast_errors = params.get_count("forecast_errors", 1);

  const std::uint64_t first_seed = get_seed(params, "first_seed");
  const int num_seeds = params.get_count("seeds", 5);
  if (num_seeds < 1) {
    throw std::invalid_argument("params.seeds must be >= 1");
  }
  // Every knob is checked before the first seed runs, so a bad one is one
  // error naming the field, not a failed verdict per seed.
  pipeline::check_checker_config(chaos.checker);
  if (!(chaos.growth_per_step >= -1.0 &&
        std::isfinite(chaos.growth_per_step))) {
    throw std::invalid_argument("params.growth must be finite and >= -1");
  }
  if (!(chaos.repair_cost_slack >= 0.0 &&
        std::isfinite(chaos.repair_cost_slack))) {
    throw std::invalid_argument(
        "params.repair_cost_slack must be finite and >= 0");
  }

  // Seeds run serially inside the job (worker-pool concurrency comes from
  // running many jobs, not from one job fanning out) so the stop flag is
  // honored at seed granularity: a drain finishes the current seed and
  // reports a partial sweep.
  json::Array verdicts;
  int failures = 0;
  int seeds_run = 0;
  bool stopped = false;
  int warm_attempts = 0;
  int warm_wins = 0;
  int fallback_full = 0;
  std::vector<double> round_seconds;
  for (int i = 0; i < num_seeds; ++i) {
    if (stop.load(std::memory_order_relaxed)) {
      stopped = true;
      break;
    }
    const sim::ChaosVerdict v =
        sim::run_chaos_seed(first_seed + static_cast<std::uint64_t>(i),
                            chaos);
    ++seeds_run;
    if (!v.passed()) ++failures;
    warm_attempts += v.warm_attempts;
    warm_wins += v.warm_wins;
    fallback_full += v.fallback_full;
    for (const pipeline::ReplanRound& round : v.rounds) {
      round_seconds.push_back(round.seconds);
    }
    json::Object verdict;
    verdict["seed"] = static_cast<std::int64_t>(v.seed);
    verdict["passed"] = v.passed();
    verdict["phases"] = v.phases;
    verdict["replans"] = v.replans;
    verdict["retries"] = v.phase_retries;
    verdict["warm_wins"] = v.warm_wins;
    if (!v.passed()) verdict["failure"] = v.failure;
    verdicts.push_back(json::Value(std::move(verdict)));
  }

  json::Object result;
  result["seeds_run"] = seeds_run;
  result["failures"] = failures;
  if (stopped) result["stopped"] = true;
  result["warm_attempts"] = warm_attempts;
  result["warm_wins"] = warm_wins;
  result["fallback_full"] = fallback_full;
  result["median_replan_ms"] = median_round_ms(std::move(round_seconds));
  result["verdicts"] = std::move(verdicts);
  return Response::make_ok(request.id, json::Value(std::move(result)));
}

Response PlanService::run_replan(const Request& request,
                                 const std::atomic<bool>& stop) {
  const json::Value& params = request.params;
  const PlanKnobs knobs = parse_knobs(params);
  migration::MigrationCase mig = case_from_params(params);
  migration::MigrationTask& task = mig.task;

  traffic::Forecaster forecaster(task.demands,
                                 params.get_double("growth", 0.002));

  pipeline::ReplanOptions options;
  options.checker = checker_config_for(knobs);
  options.planner_options.alpha = knobs.alpha;
  options.planner_options.deadline_seconds = knobs.deadline;
  options.demand_change_threshold =
      params.get_double("demand_change_threshold", 0.10);
  options.max_phase_retries = params.get_count("max_phase_retries", 3);
  options.max_replans = params.get_count("max_replans", 0);
  options.fallback_planner = params.get_string("fallback", "mrc");
  options.warm_repair = !params.get_bool("no_warm_repair", false);
  options.repair_cost_slack =
      params.get_double("repair_cost_slack", 1.25);
  if (const json::Value* failing = params.as_object().find("failing_phases")) {
    for (const json::Value& phase : failing->as_array()) {
      options.failing_phases.push_back(static_cast<int>(phase.as_int_in(
          "failing_phases[]", 0, std::numeric_limits<int>::max())));
    }
  }

  pipeline::ReplanCheckpoint resume;
  if (const json::Value* checkpoint = params.as_object().find("checkpoint")) {
    resume = pipeline::ReplanCheckpoint::from_json(*checkpoint);
    options.resume = &resume;
  }

  // Graceful drain: checkpoint after the current phase and return the
  // checkpoint as the resume token instead of abandoning the run.
  pipeline::ReplanCheckpoint last_checkpoint;
  bool have_checkpoint = false;
  options.checkpoint_sink = [&](const pipeline::ReplanCheckpoint& cp) {
    last_checkpoint = cp;
    have_checkpoint = true;
  };
  options.stop_requested = [&stop] {
    return stop.load(std::memory_order_relaxed);
  };

  auto planner = pipeline::make_planner(knobs.planner);
  const pipeline::ReplanResult replan = pipeline::execute_with_replanning(
      task, *planner, forecaster, options);

  json::Object result;
  result["completed"] = replan.completed;
  result["stopped"] = replan.stopped;
  if (!replan.failure.empty()) result["failure"] = replan.failure;
  result["phases_executed"] = replan.phases_executed;
  result["replans"] = replan.replans;
  result["phase_retries"] = replan.phase_retries;
  result["fallback_plans"] = replan.fallback_plans;
  result["used_fallback"] = replan.used_fallback;
  result["executed_cost"] = replan.executed_cost;
  result["warm_attempts"] = replan.warm_attempts;
  result["warm_wins"] = replan.warm_wins;
  result["fallback_full"] = replan.fallback_full;
  {
    std::vector<double> round_seconds;
    round_seconds.reserve(replan.rounds.size());
    for (const pipeline::ReplanRound& round : replan.rounds) {
      round_seconds.push_back(round.seconds);
    }
    result["median_replan_ms"] = median_round_ms(std::move(round_seconds));
  }
  if (replan.stopped && have_checkpoint) {
    result["checkpoint"] = last_checkpoint.to_json();
  }
  return Response::make_ok(request.id, json::Value(std::move(result)));
}

std::string PlanService::compute_whatif_text(const json::Value& params,
                                             const std::atomic<bool>& stop,
                                             bool& stopped) {
  whatif::WhatIfParams wparams = whatif_params_from(params);
  wparams.threads = options_.threads;

  // Each sweep worker gets its own private case (trajectories mutate
  // topology state), rebuilt from the request params.
  const whatif::CaseFactory factory = [&params] {
    return case_from_params(params);
  };
  migration::MigrationCase reference = case_from_params(params);
  const core::Plan plan = pipeline::plan_from_json(
      reference.task, require_object(params, "plan"));

  obs::Registry::global().counter("serve.whatif_runs").inc();
  whatif::WhatIfReport report;
  {
    obs::Span span("serve.whatif_run");
    report = whatif::run_whatif(factory, plan, wparams, &stop);
  }
  stopped = report.stopped;
  return whatif::report_text(report, wparams);
}

Response PlanService::run_whatif(const Request& request,
                                 const std::atomic<bool>& stop) {
  const std::string key =
      json::content_hash(whatif_cache_key_doc(request.params));

  PlanCache::Lookup lookup = cache_.acquire(key);
  std::string text;
  bool cached = true;
  switch (lookup.outcome) {
    case PlanCache::Outcome::kHit:
      text = lookup.text;
      break;
    case PlanCache::Outcome::kWait:
      text = cache_.wait(lookup.entry);
      break;
    case PlanCache::Outcome::kOwner: {
      // Failures are delivered to this flight's waiters and never cached —
      // and neither is a stopped (partial) report, which would otherwise
      // satisfy later full-sweep requests with a truncated result.
      bool stopped = false;
      try {
        text = compute_whatif_text(request.params, stop, stopped);
      } catch (const std::exception& e) {
        cache_.fail(lookup.entry, e.what());
        throw;
      } catch (...) {
        cache_.fail(lookup.entry, "unknown error");
        throw;
      }
      if (stopped) {
        cache_.fail(lookup.entry,
                    "whatif sweep stopped before completion");
      } else {
        cache_.fulfill(lookup.entry, text);
      }
      cached = false;
      break;
    }
  }

  json::Object result;
  result["cache_key"] = key;
  // The exact bytes klotski_whatif would write, as a parsed document: a
  // client re-dumping result.report at indent 2 plus a trailing newline
  // recovers them byte-for-byte (dump∘parse∘dump is stable).
  result["report"] = json::parse(text);
  return Response::make_ok(request.id, json::Value(std::move(result)),
                           cached);
}

}  // namespace klotski::serve
