// whatif-sweep: closed loop, one caller. Each operation is one
// whatif::run_whatif sweep of kTrajectories demand futures (threads = 1)
// over the checked-in plan of the plan-cold region, followed by
// report_text. Sweeps cycle through kSweepSeeds sweep seeds drawn from the
// workload seed, so the tail spans different futures and every repeat of a
// seed is checked against its first report. Topology phases are
// fixed while the demands change, so every demand group is recomputed on
// every check and the verdict cache is off: the same traffic/constraints
// layers as plan-cold, on the demand-change path.
#include "common.h"

#include <stdexcept>

#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/util/file.h"
#include "klotski/whatif/whatif.h"

namespace perfbench {

namespace {

using namespace klotski;

constexpr int kSetupRepeats = 25;
constexpr int kTrajectories = 12;
// Sweep seeds the run cycles through, drawn from the workload seed.
constexpr int kSweepSeeds = 8;

struct Inputs {
  npd::NpdDocument doc;
  core::Plan plan;
};

/// Set-up: synthesize the region, load the reference plan and audit it.
Inputs set_up(const Options& options) {
  Inputs in;
  in.doc = npd::parse_npd(region_d_npd_text(options.seed));
  migration::MigrationCase mig = npd::build_case(in.doc);
  in.plan = pipeline::plan_from_json(
      mig.task, json::parse(util::read_file(reference_plan_path(options))));
  pipeline::CheckerConfig config;
  config.demand.max_utilization = kTheta;
  pipeline::CheckerBundle bundle = pipeline::make_standard_checker(mig.task, config);
  if (!pipeline::audit_plan(mig.task, *bundle.checker, in.plan).ok) {
    throw std::runtime_error("reference plan fails its audit");
  }
  return in;
}

whatif::WhatIfParams sweep_params(std::uint64_t seed) {
  whatif::WhatIfParams params;
  params.trajectories = kTrajectories;
  params.seed = seed;
  params.threads = 1;
  params.checker.demand.max_utilization = kTheta;
  return params;
}

/// One sweep plus its report; the report must equal `expected` (set by the
/// first sweep of the run with the same sweep seed).
double sweep_once(const Inputs& in, const whatif::WhatIfParams& params,
                  Recorder* rec, long long id, std::string& expected,
                  Result& result) {
  const Clock::time_point start = Clock::now();
  const whatif::CaseFactory factory = [&in, rec, id]() {
    ScopedSpan span(rec, "whatif.factory", id);
    return npd::build_case(in.doc);
  };
  whatif::WhatIfReport report;
  {
    ScopedSpan span(rec, "whatif.run", id);
    report = whatif::run_whatif(factory, in.plan, params);
  }
  std::string text;
  {
    ScopedSpan span(rec, "whatif.report", id);
    text = whatif::report_text(report, params);
  }
  const double wall = ms_between(start, Clock::now());
  if (expected.empty()) expected = text;
  result.check(report.trajectories_run == params.trajectories &&
                   text == expected,
               "sweep " + std::to_string(id) +
                   ": report differs from the first sweep of this seed");
  return wall;
}

}  // namespace

Result run_whatif_sweep(const Options& options) {
  Result result;
  init_metrics(result, options.trace);

  Inputs in;
  const auto set_up_once = [&] { in = set_up(options); };

  long long rid = 0;
  std::vector<std::string> expected(kSweepSeeds);
  const auto sweep = [&](Recorder* rec) {
    const long long id = rid++;
    const auto slot = static_cast<std::size_t>(id % kSweepSeeds);
    return sweep_once(in, sweep_params(options.seed * kSweepSeeds + slot), rec,
                      id, expected[slot], result);
  };
  if (!options.trace) {
    // A block is one sweep of each sweep seed.
    const BlockedRun run = blocked_loop(options.seconds, kSweepSeeds,
                                        kSetupRepeats, set_up_once,
                                        [&] { return sweep(nullptr); });
    report_blocked_run(result, run, kTrajectories, self_peak_rss_mb());
    result.notes.push_back(
        "whatif_traj_per_s = " +
        std::to_string(result.metrics.at("work_per_s").value) +
        " in the fastest block of " + std::to_string(kSweepSeeds) +
        " sweeps of " + std::to_string(kTrajectories) +
        " trajectories; p50 and tail over the sweep seeds' fastest sweeps");
    return result;
  }

  set_up_once();
  const auto loop = [&](double seconds, Recorder* rec) {
    return closed_loop(seconds, [&] { return sweep(rec); });
  };
  const std::vector<double> untraced = loop(options.seconds / 2, nullptr);
  Recorder rec;
  std::vector<double> traced;
  const CheckCounts counts =
      count_checks([&] { traced = loop(options.seconds / 2, &rec); });
  rec.write_jsonl(options.out_dir + "/spans-whatif-sweep-" +
                  std::to_string(options.seed) + ".jsonl");

  const auto n = static_cast<double>(traced.size());
  const double factory_ms = rec.total_ms("whatif.factory");
  result.set("whatif.factory_ms", factory_ms / n);
  result.set("whatif.sweep_ms", (rec.total_ms("whatif.run") - factory_ms) / n);
  result.set("whatif.report_ms", rec.total_ms("whatif.report") / n);
  result.set("constraints.checks", counts.checks / n);
  migration::MigrationCase mig = npd::build_case(in.doc);
  report_traffic(result, n, counts.checks, counts.recomputes,
                 demand_groups(mig.task));
  result.set("bench.span_coverage_frac",
             (rec.total_ms("whatif.run") + rec.total_ms("whatif.report")) /
                 (mean(traced) * n));
  report_trace_overhead(result, untraced, traced);
  return result;
}

}  // namespace perfbench
