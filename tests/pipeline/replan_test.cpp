#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../test_helpers.h"
#include "klotski/core/astar_planner.h"
#include "klotski/pipeline/replan.h"

namespace klotski::pipeline {
namespace {

using klotski::testing::small_hgrid_case;

TEST(Replan, CompletesWithoutDriftInOneShot) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, {});
  EXPECT_TRUE(result.completed) << result.failure;
  EXPECT_EQ(result.replans, 0);
  EXPECT_GT(result.phases_executed, 0);
}

TEST(Replan, ExecutedCostMatchesPlanWhenNothingChanges) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;

  CheckerBundle bundle = make_standard_checker(mig.task, {});
  const core::Plan reference =
      planner.plan(mig.task, *bundle.checker, {});
  ASSERT_TRUE(reference.found);

  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, {});
  ASSERT_TRUE(result.completed);
  EXPECT_DOUBLE_EQ(result.executed_cost, reference.cost);
}

TEST(Replan, DriftTriggersReplanning) {
  migration::MigrationCase mig = small_hgrid_case();
  // 20% growth per step blows through the 10% drift threshold every step.
  traffic::Forecaster forecaster(mig.task.demands, 0.20);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.demand_change_threshold = 0.10;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  // Plans exist as long as the absolute demands stay feasible; growth this
  // fast may eventually make the task infeasible, which is also an
  // acceptable (reported) outcome for this test.
  if (result.completed) {
    EXPECT_GT(result.replans, 0);
  } else {
    EXPECT_FALSE(result.failure.empty());
  }
}

TEST(Replan, InjectedFailureForcesReplanAndStillCompletes) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.failing_phases = {1};
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  EXPECT_TRUE(result.completed) << result.failure;
  EXPECT_GE(result.replans, 1);
  bool logged_failure = false;
  for (const std::string& line : result.log) {
    if (line.find("failed during operation") != std::string::npos) {
      logged_failure = true;
    }
  }
  EXPECT_TRUE(logged_failure);
}

TEST(Replan, SurgeMidMigrationHandled) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  traffic::SurgeEvent surge;
  surge.kind = traffic::DemandKind::kEgress;
  surge.start_step = 1;
  surge.end_step = 3;
  surge.factor = 1.3;
  forecaster.add_surge(surge);

  core::AStarPlanner planner;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, {});
  EXPECT_TRUE(result.completed) << result.failure;
  EXPECT_GE(result.replans, 1);  // the surge crosses the 10% threshold
}

TEST(Replan, ImpossibleDemandReportsFailure) {
  migration::MigrationCase mig = small_hgrid_case();
  // Make the starting demands infeasible at the default theta.
  traffic::Forecaster forecaster(traffic::scaled(mig.task.demands, 50.0),
                                 0.0);
  core::AStarPlanner planner;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, {});
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.failure.find("planning failed"), std::string::npos);
}

TEST(Replan, TopologyRestoredAfterExecution) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  execute_with_replanning(mig.task, planner, forecaster, {});
  EXPECT_TRUE(mig.task.original_state ==
              topo::TopologyState::capture(*mig.task.topo));
}


TEST(Replan, MaintenanceEventTriggersReplans) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;

  ReplanOptions options;
  MaintenanceEvent event;
  event.name = "firmware upgrade on one rack switch";
  // Rebuild one RSW the migration itself does not operate: its demand share
  // redistributes over the remaining rack switches, a mild perturbation.
  event.switches = {mig.region->rsws[0][0]};
  event.start_step = 1;
  event.end_step = 2;
  options.maintenance = {event};

  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  EXPECT_TRUE(result.completed) << result.failure;
  // The calendar changes at step 1 (start) and step 2 (end): at least one
  // re-plan, and the event shows up in the log.
  EXPECT_GE(result.replans, 1);
  bool logged = false;
  for (const std::string& line : result.log) {
    if (line.find("maintenance") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST(Replan, MaintenanceDrainsConstrainThePlan) {
  // Draining enough spine capacity through "maintenance" makes the
  // migration unplannable: the driver must report the failure rather than
  // emit an unsafe plan.
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;

  ReplanOptions options;
  MaintenanceEvent event;
  event.name = "whole-spine maintenance";
  for (const auto& plane : mig.region->ssws[0]) {
    for (const topo::SwitchId ssw : plane) event.switches.push_back(ssw);
  }
  event.start_step = 0;
  event.end_step = 1000;
  options.maintenance = {event};

  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.failure.find("planning failed"), std::string::npos);
}

TEST(Replan, FailingPhaseIndicesFireAtMostOnce) {
  // Regression: a failure injection is consumed once. The failed phase is
  // retried under a fresh plan with the *same* global executed-phase index,
  // so un-deduplicated matching (or a repeated listing) would re-fail the
  // retry forever.
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.failing_phases = {1, 1, 1};
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  EXPECT_TRUE(result.completed) << result.failure;
  int failures_logged = 0;
  for (const std::string& line : result.log) {
    if (line.find("failed during operation") != std::string::npos) {
      ++failures_logged;
    }
  }
  EXPECT_EQ(failures_logged, 1);
  EXPECT_EQ(result.phase_retries, 1);
}

TEST(Replan, FailedPhaseRetriesWithBackoff) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.failing_phases = {0};
  options.backoff_steps = 2;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  EXPECT_TRUE(result.completed) << result.failure;
  EXPECT_EQ(result.phase_retries, 1);
  bool backed_off = false;
  for (const std::string& line : result.log) {
    if (line.find("backing off 2 steps") != std::string::npos) {
      backed_off = true;
    }
  }
  EXPECT_TRUE(backed_off);
}

TEST(Replan, FallbackPlannerEngagesAfterMaxReplans) {
  migration::MigrationCase mig = small_hgrid_case();
  // 20% growth re-plans every step, exhausting a one-round budget fast.
  traffic::Forecaster forecaster(mig.task.demands, 0.20);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.max_replans = 1;
  options.fallback_planner = "mrc";
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  if (result.completed && result.replans >= 1) {
    EXPECT_TRUE(result.used_fallback);
    EXPECT_GE(result.fallback_plans, 1);
    bool degraded = false;
    for (const std::string& line : result.log) {
      if (line.find("degrading to fallback planner") != std::string::npos) {
        degraded = true;
      }
    }
    EXPECT_TRUE(degraded);
  }
}

TEST(Replan, ObserverSeesEveryExecutedPhaseInOrder) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanOptions options;
  int calls = 0;
  int last_total = 0;
  options.observer = [&](const PhaseObservation& obs) {
    ++calls;
    EXPECT_EQ(obs.phases_executed, calls);
    int total = 0;
    for (const std::int32_t d : obs.done) total += d;
    EXPECT_EQ(total, last_total + obs.blocks);
    last_total = total;
    // The topology is materialized at the executed state: the done counts
    // must be reflected in switch states differing from the original for
    // at least one operated element once anything ran.
    EXPECT_FALSE(obs.demands.empty());
  };
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  ASSERT_TRUE(result.completed) << result.failure;
  EXPECT_EQ(calls, result.phases_executed);
}

TEST(Replan, CheckpointResumeReproducesTheUninterruptedRun) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.failing_phases = {1};  // exercise consumed-failure persistence
  std::vector<ReplanCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const ReplanCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const ReplanResult full =
      execute_with_replanning(mig.task, planner, forecaster, options);
  ASSERT_TRUE(full.completed) << full.failure;
  ASSERT_GE(checkpoints.size(), 2u);

  // Kill after an arbitrary phase; resume from the JSON round trip of its
  // checkpoint in a fresh world and compare the final outcome.
  for (const std::size_t at : {std::size_t{0}, checkpoints.size() / 2}) {
    const ReplanCheckpoint restored = ReplanCheckpoint::from_json(
        json::parse(json::dump(checkpoints[at].to_json())));
    migration::MigrationCase mig2 = small_hgrid_case();
    traffic::Forecaster forecaster2(mig2.task.demands, 0.0);
    ReplanOptions options2;
    options2.failing_phases = {1};
    options2.resume = &restored;
    const ReplanResult resumed =
        execute_with_replanning(mig2.task, planner, forecaster2, options2);
    ASSERT_TRUE(resumed.completed) << resumed.failure;
    EXPECT_EQ(resumed.phases_executed, full.phases_executed);
    EXPECT_EQ(resumed.executed_cost, full.executed_cost);  // bit-exact
    EXPECT_EQ(resumed.replans, full.replans);
    EXPECT_EQ(resumed.phase_retries, full.phase_retries);
  }
}

TEST(Replan, ResumeRejectsCheckpointFromAnotherTask) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanCheckpoint checkpoint;
  checkpoint.done = core::CountVector{0};  // wrong arity for this task
  ReplanOptions options;
  options.resume = &checkpoint;
  EXPECT_THROW(
      execute_with_replanning(mig.task, planner, forecaster, options),
      std::invalid_argument);
}

// ---- Resume validation: a checkpoint is untrusted input (the daemon's
// replan method takes it from the socket), so every field the driver uses
// as an index is checked before anything executes. ----

namespace {

/// A checkpoint from a real run of small_hgrid_case that resumes executing
/// its stored plan (no re-plan pending), with at least one phase left.
ReplanCheckpoint resumable_checkpoint() {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanOptions options;
  std::vector<ReplanCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const ReplanCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  execute_with_replanning(mig.task, planner, forecaster, options);
  for (const ReplanCheckpoint& cp : checkpoints) {
    if (!cp.plan_actions.empty() && !cp.replan_pending) return cp;
  }
  return {};
}

/// Resumes small_hgrid_case from `cp`: the driver must refuse it with
/// std::invalid_argument and leave the topology exactly as it found it.
void expect_resume_rejected(const ReplanCheckpoint& cp) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.resume = &cp;
  const std::uint64_t version = mig.task.topo->state_version();
  try {
    execute_with_replanning(mig.task, planner, forecaster, options);
    ADD_FAILURE() << "resume accepted a malformed checkpoint";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("replan-checkpoint: ", 0), 0u)
        << e.what();
  }
  EXPECT_EQ(mig.task.topo->state_version(), version);
  EXPECT_TRUE(mig.task.original_state ==
              topo::TopologyState::capture(*mig.task.topo));
}

}  // namespace

TEST(Replan, ResumeRejectsMalformedCheckpointFields) {
  const ReplanCheckpoint valid = resumable_checkpoint();
  ASSERT_FALSE(valid.plan_actions.empty());
  {
    // Unmodified, the checkpoint resumes to completion.
    migration::MigrationCase mig = small_hgrid_case();
    traffic::Forecaster forecaster(mig.task.demands, 0.0);
    core::AStarPlanner planner;
    ReplanOptions options;
    options.resume = &valid;
    EXPECT_TRUE(execute_with_replanning(mig.task, planner, forecaster,
                                        options)
                    .completed);
  }

  const migration::MigrationCase mig = small_hgrid_case();
  const auto blocks_of = [&](std::size_t t) {
    return static_cast<std::int32_t>(mig.task.blocks[t].size());
  };
  const auto types = static_cast<std::int32_t>(mig.task.blocks.size());
  core::Plan plan;
  plan.actions = valid.plan_actions;
  const std::vector<core::Phase> phases = plan.phases();
  const auto next_type = static_cast<std::size_t>(
      phases[static_cast<std::size_t>(valid.next_phase)].type);

  using Mutation = std::function<void(ReplanCheckpoint&)>;
  const std::vector<std::pair<std::string, Mutation>> mutations = {
      {"done[0] = -1", [](ReplanCheckpoint& cp) { cp.done[0] = -1; }},
      {"done[0] past its blocks",
       [&](ReplanCheckpoint& cp) { cp.done[0] = blocks_of(0) + 1; }},
      {"last_type = type count",
       [&](ReplanCheckpoint& cp) { cp.last_type = types; }},
      {"last_type = 7", [](ReplanCheckpoint& cp) { cp.last_type = 7; }},
      {"last_type = -3", [](ReplanCheckpoint& cp) { cp.last_type = -3; }},
      {"action type 100000000",
       [](ReplanCheckpoint& cp) { cp.plan_actions.back().type = 100000000; }},
      {"action type 7",
       [](ReplanCheckpoint& cp) { cp.plan_actions.back().type = 7; }},
      {"action type -3",
       [](ReplanCheckpoint& cp) { cp.plan_actions.back().type = -3; }},
      // A pending re-plan only seeds a repair from the stored plan, but its
      // actions must name real types all the same.
      {"action type 7, re-plan pending",
       [](ReplanCheckpoint& cp) {
         cp.plan_actions.back().type = 7;
         cp.replan_pending = true;
       }},
      {"block index -1",
       [](ReplanCheckpoint& cp) { cp.plan_actions.back().block_index = -1; }},
      {"next_phase past the plan",
       [&](ReplanCheckpoint& cp) {
         cp.next_phase = static_cast<int>(phases.size()) + 1;
       }},
      // Every block of the next phase's type already done: executing the
      // rest of the plan would operate blocks that do not exist.
      {"plan runs past the blocks left",
       [&](ReplanCheckpoint& cp) {
         cp.done[next_type] = blocks_of(next_type);
       }},
  };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    ReplanCheckpoint cp = valid;
    mutate(cp);
    expect_resume_rejected(cp);
  }
}

namespace {

/// Fails phase 1 on its first attempt after pushing two ops of its block
/// (simulating a config push dying mid-block).
class PartialFailureInjector final : public FaultInjector {
 public:
  std::uint64_t fault_epoch(int) const override { return 0; }
  void apply(int, topo::Topology&, std::vector<topo::SwitchId>&,
             std::vector<topo::CircuitId>&) override {}
  int phase_failure_ops(int phases_executed, int attempt) override {
    return (phases_executed == 1 && attempt == 0) ? 2 : -1;
  }
};

}  // namespace

TEST(Replan, PartialBlockApplicationIsRolledBackAndRetried) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster(mig.task.demands, 0.0);
  core::AStarPlanner planner;
  PartialFailureInjector injector;
  ReplanOptions options;
  options.injector = &injector;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  EXPECT_TRUE(result.completed) << result.failure;
  EXPECT_EQ(result.phase_retries, 1);
  bool rolled_back = false;
  for (const std::string& line : result.log) {
    if (line.find("failed after 2 ops; rolled back") != std::string::npos) {
      rolled_back = true;
    }
  }
  EXPECT_TRUE(rolled_back);
  // The torn state never leaks: the topology is back at the original.
  EXPECT_TRUE(mig.task.original_state ==
              topo::TopologyState::capture(*mig.task.topo));
}

// ---- Warm-start replanning (DESIGN.md §11) ----

namespace {

/// A surge window wide enough to trigger at least one drift re-plan
/// mid-migration (mirrors SurgeMidMigrationHandled).
traffic::Forecaster surging_forecaster(const migration::MigrationTask& task) {
  traffic::Forecaster forecaster(task.demands, 0.0);
  traffic::SurgeEvent surge;
  surge.kind = traffic::DemandKind::kEgress;
  surge.start_step = 1;
  surge.end_step = 3;
  surge.factor = 1.3;
  forecaster.add_surge(surge);
  return forecaster;
}

}  // namespace

TEST(ReplanWarm, AccountingIdentityAndRoundLedgerHold) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster = surging_forecaster(mig.task);
  core::AStarPlanner planner;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, {});
  ASSERT_TRUE(result.completed) << result.failure;
  ASSERT_GE(result.replans, 1);
  // Every warm attempt either repairs the suffix or falls back — never
  // both, never neither.
  EXPECT_EQ(result.warm_attempts, result.warm_wins + result.fallback_full);
  // One ledger row per planning round: the initial plan plus each re-plan,
  // and exactly the repaired rounds are flagged warm.
  ASSERT_EQ(result.rounds.size(),
            static_cast<std::size_t>(result.replans) + 1);
  int warm_rounds = 0;
  for (const ReplanRound& round : result.rounds) {
    EXPECT_GE(round.seconds, 0.0);
    if (round.warm) ++warm_rounds;
  }
  EXPECT_FALSE(result.rounds.front().warm);  // nothing to repair yet
  EXPECT_EQ(warm_rounds, result.warm_wins);
}

TEST(ReplanWarm, DisabledNeverAttemptsRepair) {
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster = surging_forecaster(mig.task);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.warm_repair = false;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  ASSERT_TRUE(result.completed) << result.failure;
  ASSERT_GE(result.replans, 1);
  EXPECT_EQ(result.warm_attempts, 0);
  EXPECT_EQ(result.warm_wins, 0);
  EXPECT_EQ(result.fallback_full, 0);
  for (const ReplanRound& round : result.rounds) {
    EXPECT_FALSE(round.warm);
    EXPECT_FALSE(round.warm_seeded);
  }
}

TEST(ReplanWarm, ZeroSlackDeclinesEveryRepair) {
  // With no slack, a non-empty suffix (positive cost) can never beat the
  // admissible lower bound times zero, so the cost gate declines every
  // attempt and all of them show up as full fallbacks.
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster = surging_forecaster(mig.task);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.repair_cost_slack = 0.0;
  const ReplanResult result =
      execute_with_replanning(mig.task, planner, forecaster, options);
  ASSERT_TRUE(result.completed) << result.failure;
  EXPECT_EQ(result.warm_wins, 0);
  EXPECT_EQ(result.fallback_full, result.warm_attempts);
}

TEST(ReplanWarm, WarmAndColdReachTheSameOutcome) {
  migration::MigrationCase warm_case = small_hgrid_case();
  traffic::Forecaster warm_forecaster = surging_forecaster(warm_case.task);
  core::AStarPlanner planner;
  const ReplanResult warm = execute_with_replanning(
      warm_case.task, planner, warm_forecaster, {});

  migration::MigrationCase cold_case = small_hgrid_case();
  traffic::Forecaster cold_forecaster = surging_forecaster(cold_case.task);
  ReplanOptions cold_options;
  cold_options.warm_repair = false;
  const ReplanResult cold = execute_with_replanning(
      cold_case.task, planner, cold_forecaster, cold_options);

  EXPECT_EQ(warm.completed, cold.completed);
  EXPECT_EQ(warm.phases_executed > 0, cold.phases_executed > 0);
}

TEST(ReplanCheckpointV2, RoundTripPreservesWarmState) {
  ReplanCheckpoint cp;
  cp.done = core::CountVector{2, 1};
  cp.phases_executed = 3;
  cp.step = 7;
  cp.next_phase = 2;
  cp.planning_runs = 4;
  cp.last_plan_step = 5;
  cp.last_type = 1;
  cp.executed_cost = 3.5;
  cp.plan_planner = "astar";
  cp.plan_cost = 6.0;
  cp.plan_actions = {core::PlannedAction{0, 2}, core::PlannedAction{1, 1}};
  cp.replan_pending = true;
  cp.warm_attempts = 5;
  cp.warm_wins = 3;
  cp.fallback_full = 2;

  const json::Value doc = json::parse(json::dump(cp.to_json()));
  EXPECT_EQ(doc.get_string("schema", ""), "klotski.replan-checkpoint.v2");
  EXPECT_FALSE(doc.at("warm").as_object().contains("sat_generation"));
  const ReplanCheckpoint back = ReplanCheckpoint::from_json(doc);
  EXPECT_EQ(back.done, cp.done);
  EXPECT_EQ(back.replan_pending, true);
  EXPECT_EQ(back.warm_attempts, 5);
  EXPECT_EQ(back.warm_wins, 3);
  EXPECT_EQ(back.fallback_full, 2);
  EXPECT_EQ(back.plan_actions.size(), 2u);
}

TEST(ReplanCheckpointV2, LoadsV1DocumentsWithZeroWarmDefaults) {
  ReplanCheckpoint cp;
  cp.done = core::CountVector{1};
  cp.phases_executed = 1;
  cp.step = 2;
  cp.next_phase = 1;
  cp.executed_cost = 1.0;
  cp.warm_attempts = 9;  // must NOT survive the downgrade below
  cp.replan_pending = true;

  // Downgrade the emitted v2 document to its v1 shape: the old schema
  // string, no "warm" object, no "replan_pending" key.
  const json::Value v2 = cp.to_json();
  json::Object v1;
  for (const auto& [key, value] : v2.as_object()) {
    if (key == "warm" || key == "replan_pending") continue;
    v1[key] = key == "schema"
                  ? json::Value("klotski.replan-checkpoint.v1")
                  : value;
  }

  const ReplanCheckpoint back =
      ReplanCheckpoint::from_json(json::Value(std::move(v1)));
  EXPECT_EQ(back.phases_executed, 1);
  EXPECT_EQ(back.step, 2);
  EXPECT_FALSE(back.replan_pending);
  EXPECT_EQ(back.warm_attempts, 0);
  EXPECT_EQ(back.warm_wins, 0);
  EXPECT_EQ(back.fallback_full, 0);
}

namespace {

/// Adds the warm.sat_generation key that earlier v2 writers stored (the
/// epoch key of a verdict cache carried between planning rounds).
json::Value with_sat_generation(const json::Value& doc, std::int64_t value) {
  json::Object root = doc.as_object();
  json::Object warm = root["warm"].as_object();
  warm["sat_generation"] = value;
  root["warm"] = json::Value(std::move(warm));
  return json::Value(std::move(root));
}

void expect_same_checkpoint(const ReplanCheckpoint& a,
                            const ReplanCheckpoint& b) {
  EXPECT_EQ(a.phases_executed, b.phases_executed);
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.next_phase, b.next_phase);
  EXPECT_EQ(a.planning_runs, b.planning_runs);
  EXPECT_EQ(a.last_plan_step, b.last_plan_step);
  EXPECT_EQ(a.phase_retries, b.phase_retries);
  EXPECT_EQ(a.fallback_active, b.fallback_active);
  EXPECT_EQ(a.fallback_plans, b.fallback_plans);
  EXPECT_EQ(a.last_type, b.last_type);
  EXPECT_EQ(a.executed_cost, b.executed_cost);
  EXPECT_EQ(a.state_version, b.state_version);
  EXPECT_EQ(a.done, b.done);
  EXPECT_EQ(a.plan_actions, b.plan_actions);
  EXPECT_EQ(a.plan_cost, b.plan_cost);
  EXPECT_EQ(a.plan_planner, b.plan_planner);
  EXPECT_EQ(a.replan_pending, b.replan_pending);
  EXPECT_EQ(a.warm_attempts, b.warm_attempts);
  EXPECT_EQ(a.warm_wins, b.warm_wins);
  EXPECT_EQ(a.fallback_full, b.fallback_full);
  EXPECT_EQ(a.consumed_failures, b.consumed_failures);
}

}  // namespace

TEST(ReplanCheckpointV2, LoadsDocumentsThatStillCarrySatGeneration) {
  ReplanCheckpoint cp;
  cp.done = core::CountVector{2, 1};
  cp.phases_executed = 3;
  cp.step = 7;
  cp.next_phase = 2;
  cp.planning_runs = 4;
  cp.last_plan_step = 5;
  cp.phase_retries = 1;
  cp.fallback_active = true;
  cp.fallback_plans = 1;
  cp.last_type = 1;
  cp.executed_cost = 3.5;
  cp.state_version = 99;
  cp.plan_planner = "astar";
  cp.plan_cost = 6.0;
  cp.plan_actions = {core::PlannedAction{0, 2}, core::PlannedAction{1, 1}};
  cp.replan_pending = true;
  cp.warm_attempts = 5;
  cp.warm_wins = 3;
  cp.fallback_full = 2;
  cp.consumed_failures = {1, 4};

  const json::Value old_doc = json::parse(
      json::dump(with_sat_generation(cp.to_json(), 42)));
  EXPECT_EQ(old_doc.get_string("schema", ""), "klotski.replan-checkpoint.v2");
  expect_same_checkpoint(ReplanCheckpoint::from_json(old_doc), cp);
}

TEST(ReplanCheckpointV2, ResumeFromADocumentCarryingSatGenerationMatches) {
  // The resume half of the compatibility claim: a checkpoint written with
  // warm.sat_generation resumes into the uninterrupted run's outcome, on a
  // trajectory that re-plans (drift) and retries a failed phase.
  migration::MigrationCase mig = small_hgrid_case();
  traffic::Forecaster forecaster = surging_forecaster(mig.task);
  core::AStarPlanner planner;
  ReplanOptions options;
  options.failing_phases = {1};
  std::vector<ReplanCheckpoint> checkpoints;
  options.checkpoint_sink = [&](const ReplanCheckpoint& cp) {
    checkpoints.push_back(cp);
  };
  const ReplanResult full =
      execute_with_replanning(mig.task, planner, forecaster, options);
  ASSERT_TRUE(full.completed) << full.failure;
  ASSERT_GE(checkpoints.size(), 2u);

  for (std::size_t at = 0; at + 1 < checkpoints.size(); ++at) {
    SCOPED_TRACE("checkpoint " + std::to_string(at));
    const ReplanCheckpoint restored = ReplanCheckpoint::from_json(json::parse(
        json::dump(with_sat_generation(checkpoints[at].to_json(), 7))));
    migration::MigrationCase mig2 = small_hgrid_case();
    traffic::Forecaster forecaster2 = surging_forecaster(mig2.task);
    ReplanOptions options2;
    options2.failing_phases = {1};
    options2.resume = &restored;
    const ReplanResult resumed =
        execute_with_replanning(mig2.task, planner, forecaster2, options2);
    ASSERT_TRUE(resumed.completed) << resumed.failure;
    EXPECT_EQ(resumed.phases_executed, full.phases_executed);
    EXPECT_EQ(resumed.executed_cost, full.executed_cost);  // bit-exact
    EXPECT_EQ(resumed.replans, full.replans);
    EXPECT_EQ(resumed.phase_retries, full.phase_retries);
    EXPECT_EQ(resumed.warm_attempts, full.warm_attempts);
    EXPECT_EQ(resumed.warm_wins, full.warm_wins);
    EXPECT_EQ(resumed.fallback_full, full.fallback_full);
  }
}

// The reader range-checks every integer it narrows. A bare cast used to
// wrap 2^32 to 0 and 2^32 + 1 to 1, so the document below loaded as step 0,
// done[0] = 0 and action type 1 and passed the resume checks.
TEST(ReplanCheckpoint, OutOfRangeIntegersAreRefusedNamingTheField) {
  ReplanCheckpoint cp;
  cp.done = core::CountVector{0, 0};
  cp.plan_planner = "astar";
  cp.plan_actions = {core::PlannedAction{1, 0}};
  const json::Value valid = cp.to_json();
  ASSERT_NO_THROW(ReplanCheckpoint::from_json(valid));

  const auto set_step = [](json::Value& doc, json::Value v) {
    doc.as_object()["step"] = std::move(v);
  };
  const auto set_done0 = [](json::Value& doc, json::Value v) {
    doc.as_object()["done"].as_array()[0] = std::move(v);
  };
  const auto set_type0 = [](json::Value& doc, json::Value v) {
    doc.as_object()["plan"].as_object()["actions"].as_array()[0]
        .as_array()[0] = std::move(v);
  };
  const std::int64_t two32 = std::int64_t{1} << 32;

  json::Value all = valid;  // the three fields at once
  set_step(all, json::Value(two32));
  set_done0(all, json::Value(two32));
  set_type0(all, json::Value(two32 + 1));
  json::Value done = valid;
  set_done0(done, json::Value(two32));
  json::Value type = valid;
  set_type0(type, json::Value(two32 + 1));
  json::Value negative_step = valid;
  set_step(negative_step, json::Value(-1));
  json::Value huge_step = valid;  // an integral double past int64
  set_step(huge_step, json::Value(1e300));
  json::Value version = valid;
  version.as_object()["state_version"] = json::Value(-1);
  json::Value consumed = valid;
  consumed.as_object()["consumed_failures"] =
      json::Value(json::Array{json::Value(two32)});
  json::Value attempts = valid;
  attempts.as_object()["warm"].as_object()["attempts"] = json::Value(-1);

  const std::vector<std::pair<json::Value, std::string>> cases = {
      {all, "replan-checkpoint: json: step = 4294967296 is outside [0, "},
      {done, "replan-checkpoint: json: done[0] = 4294967296 is outside ["},
      {type, "replan-checkpoint: json: plan.actions[0].type = 4294967297 "
             "is outside ["},
      {negative_step, "replan-checkpoint: json: step = -1 is outside [0, "},
      {huge_step, "replan-checkpoint: json: expected int, got double"},
      {version, "replan-checkpoint: json: state_version = -1 is outside [0, "},
      {consumed, "replan-checkpoint: json: consumed_failures[0] = "
                 "4294967296 is outside ["},
      {attempts, "replan-checkpoint: json: attempts = -1 is outside [0, "},
  };
  for (const auto& [doc, want] : cases) {
    SCOPED_TRACE(want);
    try {
      // Through text, as a peer or a file would deliver it.
      ReplanCheckpoint::from_json(json::parse(json::dump(doc)));
      ADD_FAILURE() << "out-of-range checkpoint accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(want, 0), 0u) << e.what();
    }
  }
}

}  // namespace
}  // namespace klotski::pipeline
