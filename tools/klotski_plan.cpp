// klotski_plan — run the EDP-Lite pipeline on an NPD document and emit the
// migration plan.
//
//   klotski_plan --npd=region.npd.json --planner=astar --out=plan.json
//   klotski_plan --family=flat --preset=B --out=plan.json
//
// Flags:
//   --npd          NPD JSON document; alternatively build a canonical
//                  preset in-process with --family/--preset/--scale
//   --family       clos | flat | reconf                  (default clos)
//   --preset       A..E, builds the family's canonical experiment with its
//                  default migration (no NPD file needed)
//   --scale        reduced | full for --preset           (default reduced)
//   --planner      astar | dp | mrc | janus | brute     (default astar)
//   --theta        utilization bound in (0, 1]           (default 0.75)
//   --alpha        cost-function alpha in [0, 1]         (default 0)
//   --routing      ecmp | wcmp                           (default ecmp)
//   --funneling    funneling margin >= 0                 (default 0)
//   --deadline     planner budget in seconds, finite, 0 = none (default 0)
//   --mem-budget-mb  cap on the planner's search-structure memory (node
//                  arena, dedup table, open list, verdict cache) in MB;
//                  0 = unbounded. On reaching the cap the A* search evicts
//                  the worst open nodes and degrades to beam search: the
//                  plan stays audited but may be suboptimal, and the
//                  degradation is recorded under "provenance" in the plan
//                  JSON. (default 0)
//   --demands      demand-matrix JSON replacing the generated forecast
//                  (the §7.1 refresh workflow)
//   --dump-demands write the effective demand matrix to this path
//   --out          plan JSON path                        (default: stdout)
//   --summary      also print the human-readable plan text
//   --schedule     print the crew schedule + OPEX estimate (stderr)
//   --risk         print the per-phase capacity risk report (stderr)
//   --crews        parallel crews for --schedule, >= 1    (default 4)
//   --metrics-out  write the metrics registry JSON here and print the
//                  end-of-run metrics table to stderr
//   --trace-out    write Chrome trace_event JSON here (chrome://tracing)
//
// Any other flag, and any flag value outside its range, is a usage error,
// reported before planning starts.
//
// Exit status: 0 plan found and audited, 1 no plan, 2 usage/input error.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>

#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/pipeline/risk.h"
#include "klotski/pipeline/schedule.h"
#include "klotski/traffic/demand_io.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "common/tool_runner.h"

namespace {

int run(const klotski::util::Flags& flags) {
  using namespace klotski;

  // Every numeric flag is read and range-checked here, before the case is
  // built, so a bad value is a usage error whatever else the run asks for.
  // The comparisons are written so that NaN fails them.
  core::PlannerOptions planner_options;
  planner_options.alpha = flags.get_double("alpha", 0.0);
  if (!(planner_options.alpha >= 0.0 && planner_options.alpha <= 1.0)) {
    std::cerr << "klotski_plan: --alpha must be in [0, 1]\n";
    return 2;
  }
  planner_options.deadline_seconds = flags.get_double("deadline", 0.0);
  if (!(planner_options.deadline_seconds >= 0.0 &&
        std::isfinite(planner_options.deadline_seconds))) {
    std::cerr << "klotski_plan: --deadline must be finite and >= 0\n";
    return 2;
  }
  planner_options.mem_budget_mb = flags.get_double("mem-budget-mb", 0.0);
  if (!(planner_options.mem_budget_mb >= 0.0 &&
        std::isfinite(planner_options.mem_budget_mb))) {
    std::cerr << "klotski_plan: --mem-budget-mb must be finite and >= 0\n";
    return 2;
  }
  const long long crews = flags.get_int("crews", 4);
  if (crews < 1 || crews > std::numeric_limits<int>::max()) {
    std::cerr << "klotski_plan: --crews must be an integer >= 1\n";
    return 2;
  }

  const std::string npd_path = flags.get_string("npd", "");
  const std::string preset_name = flags.get_string("preset", "");
  if (npd_path.empty() == preset_name.empty()) {
    std::cerr << "klotski_plan: exactly one of --npd=FILE or --preset=A..E "
                 "is required\n";
    return 2;
  }

  {
    npd::NpdDocument doc;
    if (!npd_path.empty()) {
      doc = npd::parse_npd(util::read_file(npd_path));
    } else {
      topo::PresetId preset;
      if (preset_name == "A") preset = topo::PresetId::kA;
      else if (preset_name == "B") preset = topo::PresetId::kB;
      else if (preset_name == "C") preset = topo::PresetId::kC;
      else if (preset_name == "D") preset = topo::PresetId::kD;
      else if (preset_name == "E") preset = topo::PresetId::kE;
      else {
        std::cerr << "klotski_plan: unknown preset '" << preset_name
                  << "'\n";
        return 2;
      }
      const std::string scale_name = flags.get_string("scale", "reduced");
      if (scale_name != "reduced" && scale_name != "full") {
        std::cerr << "klotski_plan: unknown scale '" << scale_name << "'\n";
        return 2;
      }
      const topo::PresetScale scale = scale_name == "full"
                                          ? topo::PresetScale::kFull
                                          : topo::PresetScale::kReduced;
      try {
        const topo::TopologyFamily family =
            topo::family_from_string(flags.get_string("family", "clos"));
        doc = pipeline::synth_document(family, preset, scale,
                                       npd::default_migration(family));
      } catch (const std::invalid_argument& e) {
        std::cerr << "klotski_plan: " << e.what() << "\n";
        return 2;
      }
    }

    // Build the migration case; optionally swap in an operator-provided
    // demand matrix (endpoints resolved by switch name).
    migration::MigrationCase mig = npd::build_case(doc);
    migration::MigrationTask& task = mig.task;
    const std::string demands_path = flags.get_string("demands", "");
    if (!demands_path.empty()) {
      task.demands = traffic::demands_from_json(
          *task.topo, json::parse(util::read_file(demands_path)));
      std::cerr << "loaded " << task.demands.size()
                << " demands from " << demands_path << "\n";
    }
    const std::string dump_demands = flags.get_string("dump-demands", "");
    if (!dump_demands.empty()) {
      util::write_file(
          dump_demands,
          json::dump(traffic::demands_to_json(*task.topo, task.demands), 2) +
              "\n");
      std::cerr << "wrote " << dump_demands << "\n";
    }

    pipeline::CheckerConfig checker_config;
    checker_config.demand.max_utilization = flags.get_double("theta", 0.75);
    checker_config.demand.funneling_margin =
        flags.get_double("funneling", 0.0);
    const std::string routing = flags.get_string("routing", "ecmp");
    if (routing == "wcmp") {
      checker_config.routing = traffic::SplitMode::kCapacityWeighted;
    } else if (routing != "ecmp") {
      std::cerr << "klotski_plan: unknown routing '" << routing << "'\n";
      return 2;
    }

    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(task, checker_config);
    auto planner =
        pipeline::make_planner(flags.get_string("planner", "astar"));
    const core::Plan plan =
        planner->plan(task, *bundle.checker, planner_options);

    if (flags.get_bool("summary", false)) {
      std::cerr << pipeline::plan_to_text(task, plan);
    }
    if (!plan.found) {
      std::cerr << "klotski_plan: no plan: " << plan.failure << "\n";
      return 1;
    }

    // Independent audit before anything is emitted for deployment (§7.2).
    pipeline::CheckerBundle audit_bundle =
        pipeline::make_standard_checker(task, checker_config);
    const pipeline::AuditReport audit =
        pipeline::audit_plan(task, *audit_bundle.checker, plan);
    if (!audit.ok) {
      std::cerr << "klotski_plan: plan failed the safety audit:\n";
      for (const std::string& issue : audit.issues) {
        std::cerr << "  " << issue << "\n";
      }
      return 1;
    }

    if (flags.get_bool("schedule", false)) {
      pipeline::CrewModel crew;
      crew.crews = static_cast<int>(crews);
      std::cerr << pipeline::schedule_to_text(
          pipeline::build_schedule(task, plan, crew));
    }
    if (flags.get_bool("risk", false)) {
      std::cerr << pipeline::risk_to_text(pipeline::assess_risk(
          task, plan, checker_config.demand.max_utilization,
          checker_config.routing));
    }

    const std::string text =
        json::dump(pipeline::plan_to_json(task, plan), 2) + "\n";
    const std::string out = flags.get_string("out", "");
    if (out.empty()) {
      std::cout << text;
    } else {
      util::write_file(out, text);
      std::cerr << "wrote " << out << " (cost " << plan.cost << ", "
                << plan.phases().size() << " phases, audited)\n";
    }
    return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_plan", run,
      {"npd", "family", "preset", "scale", "planner", "theta", "alpha",
       "routing", "funneling", "deadline", "mem-budget-mb", "demands",
       "dump-demands", "out", "summary", "schedule", "risk", "crews"});
}
