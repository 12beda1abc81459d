// klotski_audit — independently audit an exported plan against its NPD
// document (§7.2: "we add extra audits and safety checks to Klotski's plans
// during operation").
//
//   klotski_audit --npd=region.npd.json --plan=plan.json [--strict]
//
// Flags:
//   --npd     NPD JSON document (required)
//   --plan    plan JSON produced by klotski_plan (required)
//   --theta   utilization bound used for the audit    (default 0.75)
//   --routing ecmp | wcmp                             (default ecmp)
//   --strict  also check every intra-phase prefix (funneling paranoia)
//   --metrics-out  write the metrics registry JSON here and print the
//                  end-of-run metrics table to stderr
//   --trace-out    write Chrome trace_event JSON here (chrome://tracing)
//
// Exit status: 0 audit passed, 1 audit failed, 2 usage/input error.
#include <iostream>

#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/plan_export.h"
#include "klotski/topo/diff.h"
#include "klotski/util/file.h"
#include "klotski/util/flags.h"
#include "common/tool_runner.h"

namespace {

int run(const klotski::util::Flags& flags) {
  using namespace klotski;

  const std::string npd_path = flags.get_string("npd", "");
  const std::string plan_path = flags.get_string("plan", "");
  if (npd_path.empty() || plan_path.empty()) {
    std::cerr << "klotski_audit: --npd=FILE and --plan=FILE are required\n";
    return 2;
  }

  {
    const npd::NpdDocument doc = npd::parse_npd(util::read_file(npd_path));
    migration::MigrationCase mig = npd::build_case(doc);
    migration::MigrationTask& task = mig.task;

    const core::Plan plan = pipeline::plan_from_json(
        task, json::parse(util::read_file(plan_path)));

    pipeline::CheckerConfig config;
    config.demand.max_utilization = flags.get_double("theta", 0.75);
    if (flags.get_string("routing", "ecmp") == "wcmp") {
      config.routing = traffic::SplitMode::kCapacityWeighted;
    }
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(task, config);
    const pipeline::AuditReport report = pipeline::audit_plan(
        task, *bundle.checker, plan, flags.get_bool("strict", false));

    if (report.ok) {
      std::cout << "AUDIT OK: " << report.phases_checked
                << " phases checked, " << plan.actions.size()
                << " actions, cost " << plan.cost << "\n";
      std::cout << "This plan changes:\n"
                << topo::diff_to_text(
                       *task.topo,
                       topo::diff_states(*task.topo, task.original_state,
                                         task.target_state));
      return 0;
    }
    std::cout << "AUDIT FAILED:\n";
    for (const std::string& issue : report.issues) {
      std::cout << "  " << issue << "\n";
    }
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return klotski::tools::tool_main(
      argc, argv, "klotski_audit", run,
      {"npd", "plan", "theta", "routing", "strict"});
}
