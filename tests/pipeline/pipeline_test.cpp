#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "../test_helpers.h"
#include "klotski/npd/npd_io.h"
#include "klotski/pipeline/audit.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/pipeline/plan_export.h"

namespace klotski::pipeline {
namespace {

using klotski::testing::small_hgrid_case;

npd::NpdDocument small_doc() {
  npd::NpdDocument doc;
  doc.name = "pipeline-test";
  doc.region =
      topo::preset_params(topo::PresetId::kA, topo::PresetScale::kFull);
  doc.migration = npd::MigrationKind::kHgridV1ToV2;
  return doc;
}

TEST(MakePlanner, KnownNames) {
  EXPECT_EQ(make_planner("astar")->name(), "Klotski-A*");
  EXPECT_EQ(make_planner("dp")->name(), "Klotski-DP");
  EXPECT_EQ(make_planner("mrc")->name(), "MRC");
  EXPECT_EQ(make_planner("janus")->name(), "Janus");
  EXPECT_EQ(make_planner("brute")->name(), "BruteForce");
}

TEST(MakePlanner, UnknownNameThrows) {
  EXPECT_THROW(make_planner("quantum"), std::invalid_argument);
}

TEST(MakeStandardChecker, IncludesPortsAndDemands) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerBundle bundle = make_standard_checker(mig.task, {});
  EXPECT_EQ(bundle.checker->size(), 2u);  // ports + demands
}

TEST(MakeStandardChecker, SpacePowerAddedWhenConfigured) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerConfig config;
  config.space_power.max_present_per_grid = 100;
  CheckerBundle bundle = make_standard_checker(mig.task, config);
  EXPECT_EQ(bundle.checker->size(), 3u);
}

/// The knob error of make_standard_checker under `config`, or "" when it
/// builds.
std::string knob_error(const CheckerConfig& config) {
  migration::MigrationCase mig = small_hgrid_case();
  try {
    make_standard_checker(mig.task, config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// Every tool and daemon method builds its checkers here, so a theta
// outside (0, 1] fails closed instead of planning against 5000%.
TEST(MakeStandardChecker, ThetaOutsideZeroToOneIsRefusedNamingTheKnob) {
  for (const double theta : {0.0, -0.1, 1.0000001, 50.0,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
    CheckerConfig config;
    config.demand.max_utilization = theta;
    const std::string error = knob_error(config);
    EXPECT_NE(error.find("theta"), std::string::npos)
        << theta << ": " << error;
    EXPECT_NE(error.find("(0, 1]"), std::string::npos)
        << theta << ": " << error;
  }
  CheckerConfig config;
  config.demand.max_utilization = 1.0000001;
  EXPECT_EQ(knob_error(config), "theta 1.0000001 is outside (0, 1]");
  for (const double edge : {1.0, 1e-9}) {
    config.demand.max_utilization = edge;
    EXPECT_EQ(knob_error(config), "") << edge;
  }
}

// A negative margin would make the audit weaker than no margin at all,
// and an infinite one fails every funneled circuit.
TEST(MakeStandardChecker, NegativeOrInfiniteFunnelingMarginIsRefused) {
  for (const double margin : {-1e-9, -5.0,
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    CheckerConfig config;
    config.demand.funneling_margin = margin;
    const std::string error = knob_error(config);
    EXPECT_NE(error.find("funneling margin"), std::string::npos)
        << margin << ": " << error;
    EXPECT_NE(error.find("[0, inf)"), std::string::npos)
        << margin << ": " << error;
  }
  for (const double edge : {0.0, 1e9}) {
    CheckerConfig config;
    config.demand.funneling_margin = edge;
    EXPECT_EQ(knob_error(config), "") << edge;
  }
}

TEST(RunPipeline, EndToEndProducesAuditablePlanAndPhases) {
  const EdpResult result = run_pipeline(small_doc(), {});
  ASSERT_TRUE(result.plan.found) << result.plan.failure;

  // Phase snapshots: original + one per phase, last one == target.
  EXPECT_EQ(result.phase_states.size(), result.plan.phases().size() + 1);
  EXPECT_TRUE(result.phase_states.front() ==
              result.migration.task.original_state);
  EXPECT_TRUE(result.phase_states.back() ==
              result.migration.task.target_state);

  migration::MigrationTask& task =
      const_cast<migration::MigrationTask&>(result.migration.task);
  CheckerBundle bundle = make_standard_checker(task, {});
  EXPECT_TRUE(audit_plan(task, *bundle.checker, result.plan).ok);
}

TEST(RunPipeline, PlannerSelectionRespected) {
  EdpOptions options;
  options.planner = "dp";
  const EdpResult result = run_pipeline(small_doc(), options);
  EXPECT_EQ(result.plan.planner, "Klotski-DP");
}

TEST(RunPipeline, ThetaPropagates) {
  EdpOptions options;
  options.checker.demand.max_utilization = 0.01;  // infeasible everywhere
  const EdpResult result = run_pipeline(small_doc(), options);
  EXPECT_FALSE(result.plan.found);
  EXPECT_TRUE(result.phase_states.empty());
}

// ---------------------------------------------------------------------------
// Audit

TEST(Audit, DetectsMissingActions) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerBundle bundle = make_standard_checker(mig.task, {});
  core::Plan plan = make_planner("astar")->plan(mig.task, *bundle.checker, {});
  ASSERT_TRUE(plan.found);
  plan.actions.pop_back();
  const AuditReport report = audit_plan(mig.task, *bundle.checker, plan);
  EXPECT_FALSE(report.ok);
}

TEST(Audit, DetectsDuplicatedBlock) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerBundle bundle = make_standard_checker(mig.task, {});
  core::Plan plan = make_planner("astar")->plan(mig.task, *bundle.checker, {});
  ASSERT_TRUE(plan.found);
  plan.actions.back() = plan.actions.front();
  const AuditReport report = audit_plan(mig.task, *bundle.checker, plan);
  EXPECT_FALSE(report.ok);
}

TEST(Audit, DetectsUnsafeOrdering) {
  migration::MigrationCase mig = small_hgrid_case();
  migration::MigrationTask& task = mig.task;
  CheckerBundle bundle = make_standard_checker(task, {});
  // Adversarial plan: drain everything first, then undrain — leaves the
  // region without HGRID capacity mid-way.
  core::Plan bad;
  bad.found = true;
  bad.planner = "adversarial";
  for (std::size_t t = 0; t < task.blocks.size(); ++t) {
    for (std::size_t b = 0; b < task.blocks[t].size(); ++b) {
      bad.actions.push_back(
          {static_cast<std::int32_t>(t), static_cast<std::int32_t>(b)});
    }
  }
  const AuditReport report = audit_plan(task, *bundle.checker, bad);
  EXPECT_FALSE(report.ok);
}

TEST(Audit, ReportsNotFoundPlans) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerBundle bundle = make_standard_checker(mig.task, {});
  core::Plan missing;
  missing.failure = "because";
  const AuditReport report = audit_plan(mig.task, *bundle.checker, missing);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.issues.empty());
  EXPECT_NE(report.issues[0].find("because"), std::string::npos);
}

TEST(Audit, RestoresOriginalState) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerBundle bundle = make_standard_checker(mig.task, {});
  const core::Plan plan =
      make_planner("astar")->plan(mig.task, *bundle.checker, {});
  audit_plan(mig.task, *bundle.checker, plan);
  EXPECT_TRUE(mig.task.original_state ==
              topo::TopologyState::capture(*mig.task.topo));
}

// ---------------------------------------------------------------------------
// remaining_task

TEST(RemainingTask, EmptyPrefixEqualsOriginal) {
  migration::MigrationCase mig = small_hgrid_case();
  const migration::MigrationTask rest =
      remaining_task(mig.task, core::CountVector(mig.task.blocks.size(), 0));
  EXPECT_TRUE(rest.original_state == mig.task.original_state);
  EXPECT_EQ(rest.total_actions(), mig.task.total_actions());
}

TEST(RemainingTask, FullPrefixLeavesNothing) {
  migration::MigrationCase mig = small_hgrid_case();
  core::CountVector done;
  for (const auto& blocks : mig.task.blocks) {
    done.push_back(static_cast<std::int32_t>(blocks.size()));
  }
  const migration::MigrationTask rest = remaining_task(mig.task, done);
  EXPECT_EQ(rest.total_actions(), 0);
  EXPECT_TRUE(rest.original_state == mig.task.target_state);
}

TEST(RemainingTask, SuffixIsPlannable) {
  migration::MigrationCase mig = small_hgrid_case();
  core::CountVector done(mig.task.blocks.size(), 0);
  done[1] = 1;  // one V2 block already undrained
  migration::MigrationTask rest = remaining_task(mig.task, done);
  CheckerBundle bundle = make_standard_checker(rest, {});
  const core::Plan plan =
      make_planner("astar")->plan(rest, *bundle.checker, {});
  EXPECT_TRUE(plan.found) << plan.failure;
  EXPECT_EQ(plan.actions.size(),
            static_cast<std::size_t>(mig.task.total_actions() - 1));
}

TEST(RemainingTask, RejectsBadCounts) {
  migration::MigrationCase mig = small_hgrid_case();
  EXPECT_THROW(remaining_task(mig.task, {0}), std::invalid_argument);
  core::CountVector over(mig.task.blocks.size(), 0);
  over[0] = 1000;
  EXPECT_THROW(remaining_task(mig.task, over), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Plan export

TEST(PlanExport, JsonContainsPhasesAndStats) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerBundle bundle = make_standard_checker(mig.task, {});
  const core::Plan plan =
      make_planner("astar")->plan(mig.task, *bundle.checker, {});
  ASSERT_TRUE(plan.found);

  const json::Value exported = plan_to_json(mig.task, plan);
  EXPECT_TRUE(exported.at("found").as_bool());
  EXPECT_DOUBLE_EQ(exported.at("cost").as_double(), plan.cost);
  EXPECT_EQ(exported.at("phases").as_array().size(), plan.phases().size());
  EXPECT_GE(exported.at("stats").at("sat_checks").as_int(), 1);

  std::size_t exported_blocks = 0;
  for (const json::Value& phase : exported.at("phases").as_array()) {
    exported_blocks += phase.at("blocks").as_array().size();
  }
  EXPECT_EQ(exported_blocks, plan.actions.size());
}

TEST(PlanExport, JsonForFailedPlanCarriesFailure) {
  migration::MigrationCase mig = small_hgrid_case();
  core::Plan failed;
  failed.planner = "test";
  failed.failure = "nope";
  const json::Value exported = plan_to_json(mig.task, failed);
  EXPECT_FALSE(exported.at("found").as_bool());
  EXPECT_EQ(exported.at("failure").as_string(), "nope");
}

TEST(PlanExport, TextSummaryMentionsPhases) {
  migration::MigrationCase mig = small_hgrid_case();
  CheckerBundle bundle = make_standard_checker(mig.task, {});
  const core::Plan plan =
      make_planner("astar")->plan(mig.task, *bundle.checker, {});
  const std::string text = plan_to_text(mig.task, plan);
  EXPECT_NE(text.find("phase 1:"), std::string::npos);
  EXPECT_NE(text.find("cost="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Experiments registry

TEST(Experiments, NamesAndSets) {
  EXPECT_EQ(scalability_experiments().size(), 5u);
  EXPECT_EQ(generality_experiments().size(), 3u);
  EXPECT_EQ(to_string(ExperimentId::kEDmag), "E-DMAG");
}

TEST(Experiments, ReducedExperimentsBuildAndValidate) {
  for (const ExperimentId id : generality_experiments()) {
    migration::MigrationCase mig =
        build_experiment(id, topo::PresetScale::kReduced);
    EXPECT_EQ(mig.task.validate(), "") << to_string(id);
  }
}

}  // namespace
}  // namespace klotski::pipeline
