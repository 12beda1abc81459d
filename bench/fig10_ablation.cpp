// Figure 10: impact of Klotski's design choices, on topologies A..E
// (HGRID V1->V2):
//   * Klotski w/o OB  — no operation blocks (symmetry-block granularity)
//   * Klotski w/o A*  — uniform-cost search instead of the A* priority
//   * Klotski w/o ESC — no ordering-agnostic satisfiability cache
//
// Paper shape: w/o OB fails on C..E and is 4.4-26.7x slower on small
// topologies; w/o A* is 7-1456.5x slower; w/o ESC 1.1-3.5x slower (bigger
// effect on large topologies). All variants that finish stay optimal.
//
// Figure 10(c) prints each variant's satisfiability checks and cache hits.
// Here A*'s dedup table already merges the orders that reach one state, so
// the cache answers about one query per plan (the origin) and "w/o ESC"
// makes about one more check.
#include "bench_common.h"

int main() {
  using namespace klotski;
  bench::print_scale_banner("Figure 10 — ablation of Klotski design choices");
  const topo::PresetScale scale = pipeline::bench_scale_from_env();

  util::Table cost_table({"Topology", "w/o OB", "w/o A*", "w/o ESC",
                          "Klotski-A*"});
  cost_table.set_title("Figure 10(a): plan cost normalized by the optimum");
  util::Table time_table({"Topology", "w/o OB", "w/o A*", "w/o ESC",
                          "Klotski-A*", "A* seconds"});
  time_table.set_title(
      "Figure 10(b): planning time normalized by Klotski-A* (x)");
  util::Table check_table({"Topology", "w/o OB", "w/o A*", "w/o ESC",
                           "Klotski-A*"});
  check_table.set_title(
      "Figure 10(c): satisfiability checks / cache hits per plan");
  const auto checks_cell = [](const bench::PlannerRun& run) {
    return std::to_string(run.plan.stats.sat_checks) + " / " +
           std::to_string(run.plan.stats.cache_hits);
  };

  for (const pipeline::ExperimentId id :
       pipeline::scalability_experiments()) {
    const auto preset = static_cast<topo::PresetId>(id);
    migration::MigrationCase mig = pipeline::build_experiment(id, scale);
    migration::MigrationTask& task = mig.task;

    const bench::PlannerRun astar = bench::run_planner(task, "astar");

    core::PlannerOptions no_heuristic;
    no_heuristic.use_astar_heuristic = false;
    const bench::PlannerRun no_astar =
        bench::run_planner(task, "astar", no_heuristic);

    core::PlannerOptions no_cache;
    no_cache.use_satisfiability_cache = false;
    const bench::PlannerRun no_esc =
        bench::run_planner(task, "astar", no_cache);

    // w/o OB: rebuild the task at symmetry-block granularity.
    migration::HgridMigrationParams fine = pipeline::hgrid_params_for(
        preset, scale);
    fine.policy.use_operation_blocks = false;
    migration::MigrationCase fine_mig = migration::build_hgrid_migration(
        topo::preset_params(preset, scale), fine);
    const bench::PlannerRun no_ob =
        bench::run_planner(fine_mig.task, "astar");

    const double optimal = astar.plan.found ? astar.plan.cost : 0.0;
    const double base = astar.plan.stats.wall_seconds;

    // w/o OB plans a finer task: compare raw cost against the default
    // task's optimum (finer blocks can genuinely reach a lower cost).
    cost_table.add_row({pipeline::to_string(id),
                        bench::cost_cell(no_ob, optimal),
                        bench::cost_cell(no_astar, optimal),
                        bench::cost_cell(no_esc, optimal),
                        bench::cost_cell(astar, optimal)});
    time_table.add_row({pipeline::to_string(id),
                        bench::time_cell(no_ob, base),
                        bench::time_cell(no_astar, base),
                        bench::time_cell(no_esc, base),
                        bench::time_cell(astar, base),
                        util::format_double(base, 4)});
    check_table.add_row({pipeline::to_string(id), checks_cell(no_ob),
                         checks_cell(no_astar), checks_cell(no_esc),
                         checks_cell(astar)});
  }

  cost_table.print(std::cout);
  std::cout << "\n";
  time_table.print(std::cout);
  std::cout << "\n";
  check_table.print(std::cout);
  std::cout << "\nPaper reference: w/o OB fails (x) on C-E within the "
               "deadline; w/o A* 7-1456.5x; w/o ESC 1.1-3.5x.\n";
  return 0;
}
