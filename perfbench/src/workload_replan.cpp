// replan-faults: closed loop, one caller. Each operation executes the
// reduced Clos preset B migration through
// pipeline::execute_with_replanning under one seeded fault script
// (sim::make_fault_script: circuit degradations and failures, unplanned
// drains, injected step failures, demand surges and forecast biases),
// with warm repair on and the chaos engine's replan settings. There is no
// observer or checkpoint sink, so no invariant-checker cost is measured.
//
// The fault seeds come from a checked-in pool (data/replan-b-verdicts.json)
// that records, for each seed, whether the migration completes, its
// executed cost and its replan rounds. The workload seed picks kFaultSeeds
// of them; every execution must reproduce its seed's recorded verdict.
#include "common.h"

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>

#include "klotski/json/json.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/sim/chaos.h"
#include "klotski/sim/fault_script.h"
#include "klotski/util/file.h"

namespace perfbench {

namespace {

using namespace klotski;

constexpr int kSetupRepeats = 16;
constexpr int kFaultSeeds = 128;
// Passes over the run's fault seeds per block (about a second).
constexpr int kBlockCycles = 5;
// Fault seeds 1..kPoolSize make up the recorded pool.
constexpr int kPoolSize = 512;

sim::ChaosParams chaos_params() {
  sim::ChaosParams params;
  params.preset = topo::PresetId::kB;
  params.scale = topo::PresetScale::kReduced;
  params.checkpoint_self_test = false;
  return params;
}

migration::MigrationCase build_case(const sim::ChaosParams& params) {
  return pipeline::build_family_experiment(params.family, params.preset,
                                           params.scale);
}

std::string verdicts_path(const Options& options) {
  return options.data_dir + "/replan-b-verdicts.json";
}

struct Scenario {
  std::uint64_t fault_seed = 0;
  sim::FaultScript script;
  bool completed = false;  // recorded in the pool
  double executed_cost = 0.0;
  int replans = 0;
};

std::string verdict_text(bool completed, double cost, int replans) {
  return std::string(completed ? "completed" : "not completed") + ", cost " +
         json::dump(json::Value(cost)) + ", " + std::to_string(replans) +
         " replans";
}

/// This run's fault seeds. Every recorded non-completing seed is taken, so
/// every run exercises the expected-failure path. The rest are completing
/// seeds, drawn within strata of equal replan rounds, each stratum taking
/// its share of the pool (largest remainder), so runs of different seeds
/// execute the same mix of verdicts and replan rounds. Without the strata
/// the median execution moves with the draw: 46% of the pool replans
/// never and 35% once, and an execution with one replan round takes about a
/// quarter longer than one without. The index draw is an explicit partial Fisher-Yates
/// shuffle, so the pick does not depend on the standard library's
/// distributions.
std::vector<Scenario> pick_scenarios(std::vector<Scenario> pool,
                                     std::uint64_t seed) {
  std::vector<Scenario> picked;
  std::map<int, std::vector<Scenario>> strata;  // completing seeds by replans
  for (Scenario& s : pool) {
    if (s.completed) {
      strata[s.replans].push_back(std::move(s));
    } else {
      picked.push_back(std::move(s));
    }
  }
  const std::size_t completing = pool.size() - picked.size();
  const std::size_t wanted = static_cast<std::size_t>(kFaultSeeds) - picked.size();
  std::vector<std::size_t> quota;
  std::vector<std::pair<std::size_t, std::size_t>> remainders;  // (rem, stratum)
  std::size_t given = 0;
  for (const auto& [replans, members] : strata) {
    quota.push_back(members.size() * wanted / completing);
    given += quota.back();
    remainders.emplace_back(members.size() * wanted % completing,
                            remainders.size());
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; given < wanted; ++i, ++given) {
    ++quota[remainders[i].second];
  }
  std::mt19937_64 rng(seed);
  std::size_t stratum = 0;
  for (auto& [replans, members] : strata) {
    for (std::size_t i = 0; i < quota[stratum]; ++i) {
      std::swap(members[i], members[i + rng() % (members.size() - i)]);
      picked.push_back(std::move(members[i]));
    }
    ++stratum;
  }
  return picked;
}

/// Set-up: load the recorded pool, pick this run's fault seeds, generate
/// their scripts, and run each through the chaos engine with its invariant
/// checker watching every phase. Every engine verdict must keep the
/// invariants and match the recorded one.
std::vector<Scenario> set_up(const Options& options,
                             const sim::ChaosParams& params, Result& result) {
  const json::Value pool = json::parse(util::read_file(verdicts_path(options)));
  std::vector<Scenario> recorded;
  std::size_t infeasible = 0;
  for (const json::Value& v : pool.at("verdicts").as_array()) {
    Scenario s;
    s.fault_seed = static_cast<std::uint64_t>(v.at("fault_seed").as_int());
    s.completed = v.at("completed").as_bool();
    s.executed_cost = v.at("executed_cost").as_double();
    s.replans = static_cast<int>(v.at("replans").as_int());
    infeasible += s.completed ? 0 : 1;
    recorded.push_back(std::move(s));
  }
  if (recorded.size() < static_cast<std::size_t>(kFaultSeeds) ||
      infeasible >= static_cast<std::size_t>(kFaultSeeds)) {
    throw std::runtime_error("fault seed pool holds fewer than " +
                             std::to_string(kFaultSeeds) +
                             " seeds or too many non-completing ones");
  }
  std::vector<Scenario> all = pick_scenarios(std::move(recorded), options.seed);

  const migration::MigrationCase shape = build_case(params);
  sim::FaultScriptParams faults = params.faults;
  faults.horizon = shape.task.total_actions() * 2 + 16;
  faults.expected_phases = std::max(4, shape.task.total_actions());
  for (Scenario& s : all) {
    s.script = sim::make_fault_script(s.fault_seed, shape.task, faults);
    const sim::ChaosVerdict verdict = sim::run_chaos_seed(s.fault_seed, params);
    // run_chaos_seed turns an exception into !invariants_ok.
    result.check(verdict.invariants_ok && verdict.completed == s.completed &&
                     verdict.executed_cost == s.executed_cost &&
                     verdict.replans == s.replans,
                 "chaos engine, fault seed " + std::to_string(s.fault_seed) +
                     ": " +
                     verdict_text(verdict.completed, verdict.executed_cost,
                                  verdict.replans) +
                     (verdict.failure.empty() ? "" : " (" + verdict.failure + ")") +
                     "; recorded " +
                     verdict_text(s.completed, s.executed_cost, s.replans));
  }
  return all;
}

struct Tally {
  long long ops = 0;
  long long plan_calls = 0;
  long long replans = 0;
  long long warm_attempts = 0;
  long long warm_wins = 0;
  core::PlannerStats search;
};

double execute_once(const Scenario& s, const sim::ChaosParams& params,
                    Recorder* rec, long long rid, Result& result,
                    Tally& tally) {
  migration::MigrationCase mig = build_case(params);
  migration::MigrationTask& task = mig.task;

  const Clock::time_point start = Clock::now();
  traffic::Forecaster forecaster(task.demands, params.growth_per_step);
  for (const traffic::SurgeEvent& surge : s.script.surges) {
    forecaster.add_surge(surge);
  }
  for (const traffic::ForecastBias& bias : s.script.biases) {
    forecaster.add_bias(bias);
  }
  sim::ScriptInjector injector(s.script, *task.topo);
  const std::unique_ptr<core::Planner> astar =
      pipeline::make_planner(params.planner);
  TracedPlanner planner(*astar, rec, rid);

  pipeline::ReplanOptions options;
  options.checker = params.checker;
  options.planner_options = params.planner_options;
  options.demand_change_threshold = params.demand_change_threshold;
  options.max_phase_retries = params.max_phase_retries;
  options.backoff_steps = params.backoff_steps;
  options.max_backoff_steps = params.max_backoff_steps;
  options.max_replans = params.max_replans;
  options.fallback_planner = params.fallback_planner;
  options.warm_repair = params.warm_repair;
  options.repair_cost_slack = params.repair_cost_slack;
  options.injector = &injector;

  pipeline::ReplanResult run;
  std::string error;
  try {
    ScopedSpan span(rec, "pipeline.execute", rid);
    run = pipeline::execute_with_replanning(task, planner, forecaster, options);
  } catch (const std::exception& e) {
    error = e.what();
  }
  injector.restore_capacities();
  const double wall = ms_between(start, Clock::now());

  result.check(error.empty() && run.completed == s.completed &&
                   run.executed_cost == s.executed_cost &&
                   run.replans == s.replans,
               "fault seed " + std::to_string(s.fault_seed) + ": " +
                   (error.empty()
                        ? verdict_text(run.completed, run.executed_cost, run.replans)
                        : "exception: " + error) +
                   "; recorded " +
                   verdict_text(s.completed, s.executed_cost, s.replans));
  ++tally.ops;
  tally.plan_calls += planner.calls;
  tally.replans += run.replans;
  tally.warm_attempts += run.warm_attempts;
  tally.warm_wins += run.warm_wins;
  tally.search.visited_states += planner.totals.visited_states;
  tally.search.sat_checks += planner.totals.sat_checks;
  tally.search.cache_hits += planner.totals.cache_hits;
  tally.search.evaluations += planner.totals.evaluations;
  return wall;
}

}  // namespace

Result run_replan_faults(const Options& options) {
  Result result;
  init_metrics(result, options.trace);
  const sim::ChaosParams params = chaos_params();

  std::vector<Scenario> scenarios;
  const auto set_up_once = [&] {
    Result scratch;  // the engine's verdicts are checked once
    scenarios = set_up(options, params, scenarios.empty() ? result : scratch);
  };
  const auto note_scenarios = [&] {
    const auto expected_failures = std::count_if(
        scenarios.begin(), scenarios.end(),
        [](const Scenario& s) { return !s.completed; });
    result.notes.push_back(std::to_string(scenarios.size()) + " fault seeds, " +
                           std::to_string(expected_failures) +
                           " recorded as not completing (expected verdicts)");
  };

  long long rid = 0;
  const auto execute = [&](Recorder* rec, Tally& tally) {
    const long long id = rid++;
    return execute_once(scenarios[static_cast<std::size_t>(id) % scenarios.size()],
                        params, rec, id, result, tally);
  };
  const auto loop = [&](double seconds, Recorder* rec, Tally& tally) {
    return closed_loop(seconds, [&] { return execute(rec, tally); });
  };
  Tally untraced_tally;
  if (!options.trace) {
    // A block runs every fault seed kBlockCycles times.
    const BlockedRun run = blocked_loop(
        options.seconds, kBlockCycles * kFaultSeeds, kSetupRepeats,
        set_up_once, [&] { return execute(nullptr, untraced_tally); });
    note_scenarios();
    report_blocked_run(result, run, 1.0, self_peak_rss_mb());
    result.notes.push_back(
        "exec_p50_ms = " + std::to_string(result.metrics.at("p50_ms").value) +
        ", exec_p90_ms = " + std::to_string(result.metrics.at("tail_ms").value) +
        " over the executions' fastest walls");
    return result;
  }

  set_up_once();
  note_scenarios();
  const std::vector<double> untraced =
      loop(options.seconds / 2, nullptr, untraced_tally);
  Recorder rec;
  Tally tally;
  std::vector<double> traced;
  const CheckCounts counts =
      count_checks([&] { traced = loop(options.seconds / 2, &rec, tally); });
  rec.write_jsonl(options.out_dir + "/spans-replan-faults-" +
                  std::to_string(options.seed) + ".jsonl");

  const auto n = static_cast<double>(tally.ops);
  result.set("core.plan_ms", rec.total_ms("core.plan") / n);
  result.set("core.plan_calls", static_cast<double>(tally.plan_calls) / n);
  result.set("core.visited", static_cast<double>(tally.search.visited_states) / n);
  result.set("core.sat_checks", static_cast<double>(tally.search.sat_checks) / n);
  result.set("core.cache_hit_frac",
             static_cast<double>(tally.search.cache_hits) /
                 static_cast<double>(std::max<long long>(1, tally.search.evaluations)));
  result.set("pipeline.replan_rounds", static_cast<double>(tally.replans) / n);
  result.set("pipeline.warm_win_frac",
             static_cast<double>(tally.warm_wins) /
                 static_cast<double>(std::max<long long>(1, tally.warm_attempts)));
  result.set("constraints.checks", counts.checks / n);
  // Groups of the base demand set; surges and biases scale volumes but keep
  // every demand's targets.
  migration::MigrationCase mig = build_case(params);
  report_traffic(result, n, counts.checks, counts.recomputes,
                 demand_groups(mig.task));
  result.set("bench.span_coverage_frac",
             rec.total_ms("pipeline.execute") / (mean(traced) * n));
  report_trace_overhead(result, untraced, traced);
  result.notes.push_back(
      "traced " + std::to_string(tally.ops) + " executions: " +
      std::to_string(tally.replans) + " replans, warm wins " +
      std::to_string(tally.warm_wins) + "/" + std::to_string(tally.warm_attempts));
  return result;
}

void record_replan_verdicts(const std::string& path) {
  const sim::ChaosParams params = chaos_params();
  json::Array verdicts;
  for (int seed = 1; seed <= kPoolSize; ++seed) {
    const sim::ChaosVerdict v =
        sim::run_chaos_seed(static_cast<std::uint64_t>(seed), params);
    if (!v.invariants_ok) {
      throw std::runtime_error("fault seed " + std::to_string(seed) +
                               " breaks an invariant: " + v.failure);
    }
    json::Object entry;
    entry["fault_seed"] = static_cast<std::int64_t>(seed);
    entry["completed"] = v.completed;
    entry["executed_cost"] = v.executed_cost;
    entry["replans"] = static_cast<std::int64_t>(v.replans);
    if (!v.completed) entry["failure"] = v.failure;
    verdicts.push_back(json::Value(std::move(entry)));
  }
  json::Object doc;
  doc["workload"] = "replan-faults";
  doc["preset"] = "B";
  doc["scale"] = "reduced";
  doc["verdicts"] = json::Value(std::move(verdicts));
  util::write_file(path, json::dump(json::Value(std::move(doc)), 2) + "\n");
}

}  // namespace perfbench
