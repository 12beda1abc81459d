// plan-cold: closed loop, one caller. Each operation takes the full-scale
// Clos preset D NPD text to an audited, serialized plan through the same
// stages klotski_plan runs: parse_npd -> build_case ->
// make_standard_checker -> A* plan -> audit_plan (fresh checker) ->
// plan_to_json + dump. Nothing is reused between operations.
#include "common.h"

#include <stdexcept>

#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/util/file.h"

namespace perfbench {

namespace {

using namespace klotski;

constexpr int kSetupRepeats = 25;

struct Reference {
  double cost = 0.0;
  std::size_t phases = 0;
};

/// Set-up: synthesize the region and audit the checked-in reference plan
/// against it, which yields the cost and phase count every plan must match.
Reference set_up(const Options& options, std::string& npd_text) {
  npd_text = region_d_npd_text(options.seed);
  migration::MigrationCase mig = npd::build_case(npd::parse_npd(npd_text));
  const core::Plan ref = pipeline::plan_from_json(
      mig.task, json::parse(util::read_file(reference_plan_path(options))));
  pipeline::CheckerConfig config;
  config.demand.max_utilization = kTheta;
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(mig.task, config);
  if (!pipeline::audit_plan(mig.task, *bundle.checker, ref).ok) {
    throw std::runtime_error("reference plan fails its audit");
  }
  return Reference{ref.cost, ref.phases().size()};
}

/// Per-layer tallies of the traced operations.
struct Tally {
  long long ops = 0;
  double wall_ms = 0.0;
  long long checks = 0;
  long long passed = 0;
  long long recomputes = 0;
  long long plan_calls = 0;
  core::PlannerStats search;
};

double plan_once(const std::string& npd_text, const Reference& ref,
                 Recorder* rec, long long rid, Result& result, Tally& tally) {
  pipeline::CheckerConfig config;
  config.demand.max_utilization = kTheta;
  const Clock::time_point start = Clock::now();

  npd::NpdDocument doc;
  {
    ScopedSpan span(rec, "npd.parse", rid);
    doc = npd::parse_npd(npd_text);
  }
  migration::MigrationCase mig;
  {
    ScopedSpan span(rec, "npd.build_case", rid);
    mig = npd::build_case(doc);
  }
  pipeline::CheckerBundle bundle;
  std::unique_ptr<TracedComposite> traced;
  std::unique_ptr<core::Planner> astar;
  {
    ScopedSpan span(rec, "pipeline.checker_build", rid);
    bundle = pipeline::make_standard_checker(mig.task, config);
    if (rec != nullptr) traced = traced_composite(*bundle.checker, rec, rid);
    astar = pipeline::make_planner("astar");
  }
  TracedPlanner planner(*astar, rec, rid);
  const core::Plan plan = planner.plan(
      mig.task, traced ? *traced : *bundle.checker, core::PlannerOptions{});
  pipeline::AuditReport audit;
  {
    ScopedSpan span(rec, "pipeline.audit", rid);
    pipeline::CheckerBundle fresh = pipeline::make_standard_checker(mig.task, config);
    if (plan.found) audit = pipeline::audit_plan(mig.task, *fresh.checker, plan);
  }
  std::string text;
  {
    ScopedSpan span(rec, "pipeline.emit", rid);
    text = json::dump(pipeline::plan_to_json(mig.task, plan), 2) + "\n";
  }
  const double wall = ms_between(start, Clock::now());

  result.check(plan.found && audit.ok && plan.cost == ref.cost &&
                   plan.phases().size() == ref.phases && !text.empty(),
               "plan " + std::to_string(rid) + ": found=" +
                   std::to_string(plan.found) + " audit=" +
                   std::to_string(audit.ok) + " cost=" +
                   std::to_string(plan.cost) + " phases=" +
                   std::to_string(plan.phases().size()));
  if (traced) {
    ++tally.ops;
    tally.wall_ms += wall;
    tally.checks += traced->checks_performed();
    tally.passed += traced->passed();
    tally.recomputes += bundle.router->group_recomputes();
    tally.plan_calls += planner.calls;
    tally.search.visited_states += planner.totals.visited_states;
    tally.search.sat_checks += planner.totals.sat_checks;
    tally.search.cache_hits += planner.totals.cache_hits;
    tally.search.evaluations += planner.totals.evaluations;
  }
  return wall;
}

}  // namespace

Result run_plan_cold(const Options& options) {
  Result result;
  init_metrics(result, options.trace);

  std::string npd_text;
  Reference ref;
  const auto set_up_once = [&] { ref = set_up(options, npd_text); };
  long long rid = 0;
  Tally tally;
  if (!options.trace) {
    // Every plan runs the same input, so a block is one plan.
    const BlockedRun run = blocked_loop(
        options.seconds, 1, kSetupRepeats, set_up_once,
        [&] { return plan_once(npd_text, ref, nullptr, rid++, result, tally); });
    report_blocked_run(result, run, 1.0, self_peak_rss_mb());
    result.notes.push_back("plan_s (fastest NPD -> audited plan) = " +
                           std::to_string(result.metrics.at("p50_ms").value / 1e3) +
                           " s over " + std::to_string(run.blocks.size()) + " plans");
    return result;
  }

  set_up_once();
  const auto loop = [&](double seconds, Recorder* rec) {
    return closed_loop(seconds, [&] {
      return plan_once(npd_text, ref, rec, rid++, result, tally);
    });
  };
  Recorder rec;
  const std::vector<double> untraced = loop(options.seconds / 2, nullptr);
  const std::vector<double> traced = loop(options.seconds / 2, &rec);
  rec.write_jsonl(options.out_dir + "/spans-plan-cold-" +
                  std::to_string(options.seed) + ".jsonl");

  const auto n = static_cast<double>(tally.ops);
  const double plan_ms = rec.total_ms("core.plan");
  const double constraint_ms = rec.child_ms("core.plan", "constraints.");
  const double demand_ms = rec.total_ms("constraints.demands");
  const double staged_ms =
      rec.total_ms("npd.parse") + rec.total_ms("npd.build_case") +
      rec.total_ms("pipeline.checker_build") + plan_ms +
      rec.total_ms("pipeline.audit") + rec.total_ms("pipeline.emit");
  result.set("npd.parse_ms", rec.total_ms("npd.parse") / n);
  result.set("npd.build_case_ms", rec.total_ms("npd.build_case") / n);
  result.set("pipeline.checker_build_ms",
             rec.total_ms("pipeline.checker_build") / n);
  result.set("pipeline.audit_ms", rec.total_ms("pipeline.audit") / n);
  result.set("pipeline.emit_ms", rec.total_ms("pipeline.emit") / n);
  result.set("core.plan_ms", plan_ms / n);
  result.set("core.self_ms", (plan_ms - constraint_ms) / n);
  result.set("core.visited", static_cast<double>(tally.search.visited_states) / n);
  result.set("core.sat_checks", static_cast<double>(tally.search.sat_checks) / n);
  result.set("core.cache_hit_frac",
             static_cast<double>(tally.search.cache_hits) /
                 static_cast<double>(tally.search.evaluations));
  result.set("core.plan_calls", static_cast<double>(tally.plan_calls) / n);
  result.set("constraints.checks", static_cast<double>(tally.checks) / n);
  result.set("constraints.port_ms", rec.total_ms("constraints.ports") / n);
  result.set("constraints.demand_ms", demand_ms / n);
  result.set("constraints.demand_us_per_check",
             demand_ms * 1e3 /
                 static_cast<double>(rec.count("constraints.demands")));
  result.set("constraints.pass_frac", static_cast<double>(tally.passed) /
                                          static_cast<double>(tally.checks));
  migration::MigrationCase mig = npd::build_case(npd::parse_npd(npd_text));
  report_traffic(result, n, static_cast<double>(tally.checks),
                 static_cast<double>(tally.recomputes), demand_groups(mig.task));
  result.set("bench.span_coverage_frac", staged_ms / tally.wall_ms);
  report_trace_overhead(result, untraced, traced);
  result.notes.push_back(
      "traced " + std::to_string(tally.ops) + " plans, " +
      std::to_string(rec.size()) + " spans; constraints.demand_ms / "
      "core.plan_ms = " + std::to_string(demand_ms / plan_ms));
  return result;
}

}  // namespace perfbench
