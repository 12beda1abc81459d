// Pins the warm-repair gates' decisions (DESIGN.md §11) on the faulted
// executions of perfbench `replan-faults`: reduced Clos preset B,
// ChaosParams defaults, one sim::make_fault_script per fault seed driven
// through execute_with_replanning by a ScriptInjector with the script's
// surges and forecast biases, no observer and no checkpoint self-test.
// A change to the symmetry gate, the cost gate or the revalidation shows
// here as a different decline tally.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/replan.h"
#include "klotski/sim/chaos.h"
#include "klotski/sim/fault_script.h"

namespace klotski {
namespace {

constexpr const char* kSymmetryDecline =
    "warm repair declined (symmetry classes changed under the suffix); "
    "planning from scratch";

sim::ChaosParams replan_faults_params() {
  sim::ChaosParams params;
  params.preset = topo::PresetId::kB;
  params.scale = topo::PresetScale::kReduced;
  params.checkpoint_self_test = false;
  return params;
}

pipeline::ReplanResult execute_fault_seed(std::uint64_t seed) {
  const sim::ChaosParams params = replan_faults_params();
  migration::MigrationCase mig = pipeline::build_family_experiment(
      params.family, params.preset, params.scale);
  migration::MigrationTask& task = mig.task;
  sim::FaultScriptParams faults = params.faults;
  faults.horizon = task.total_actions() * 2 + 16;
  faults.expected_phases = std::max(4, task.total_actions());
  const sim::FaultScript script = sim::make_fault_script(seed, task, faults);

  traffic::Forecaster forecaster(task.demands, params.growth_per_step);
  for (const traffic::SurgeEvent& surge : script.surges) {
    forecaster.add_surge(surge);
  }
  for (const traffic::ForecastBias& bias : script.biases) {
    forecaster.add_bias(bias);
  }
  sim::ScriptInjector injector(script, *task.topo);
  const std::unique_ptr<core::Planner> planner =
      pipeline::make_planner(params.planner);

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
  return pipeline::execute_with_replanning(task, *planner, forecaster,
                                           options);
}

/// Which gate declined, from the driver's log line.
std::string decline_gate(const std::string& line) {
  const std::string prefix = "warm repair declined (";
  if (line.rfind(prefix, 0) != 0) return "";
  const std::string reason = line.substr(prefix.size());
  if (reason.rfind("symmetry classes changed", 0) == 0) return "symmetry";
  if (reason.rfind("suffix cost", 0) == 0) return "cost slack";
  if (reason.rfind("suffix violates", 0) == 0) return "revalidation";
  return reason;  // shape gates
}

TEST(RepairGate, SymmetryGateDeclinesOnKnownFaultSeeds) {
  for (const std::uint64_t seed : {9, 16, 23}) {
    const pipeline::ReplanResult run = execute_fault_seed(seed);
    EXPECT_NE(std::find(run.log.begin(), run.log.end(), kSymmetryDecline),
              run.log.end())
        << "fault seed " << seed;
  }
}

TEST(RepairGate, DecisionTallyOverFaultSeeds1To40) {
  int attempts = 0;
  int wins = 0;
  std::map<std::string, int> declines;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const pipeline::ReplanResult run = execute_fault_seed(seed);
    attempts += run.warm_attempts;
    wins += run.warm_wins;
    for (const std::string& line : run.log) {
      const std::string gate = decline_gate(line);
      if (!gate.empty()) ++declines[gate];
    }
  }
  EXPECT_EQ(attempts, 26);
  EXPECT_EQ(wins, 6);
  const std::map<std::string, int> want = {
      {"symmetry", 9}, {"cost slack", 8}, {"revalidation", 3}};
  EXPECT_EQ(declines, want);
}

}  // namespace
}  // namespace klotski
