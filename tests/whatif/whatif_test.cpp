// What-if engine tests: cross-family smoke (the sweep runs on every
// topology family's canonical migration), where the sweep's demand checks
// route (the quotient on Clos, the fabric on flat and reconf),
// bit-reproducibility (same seed → byte-identical report at any thread
// count), unsafe-future detection under aggressive demand knobs,
// structural breaks in the phase-major walk, the closed-form margin
// against the bisection it replaced, and the cooperative stop contract.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

#include "klotski/constraints/demand_checker.h"
#include "klotski/constraints/space_power_checker.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/json/json.h"
#include "klotski/npd/npd_io.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/topo/builder.h"
#include "klotski/traffic/demand.h"
#include "klotski/util/file.h"
#include "klotski/whatif/whatif.h"

namespace klotski {
namespace {

core::Plan plan_family(migration::MigrationCase mig) {
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, pipeline::CheckerConfig{});
  auto planner = pipeline::make_planner("astar");
  core::Plan plan = planner->plan(mig.task, *bundle.checker,
                                  core::PlannerOptions{});
  EXPECT_TRUE(plan.found) << plan.failure;
  return plan;
}

whatif::CaseFactory family_factory(topo::TopologyFamily family) {
  return [family] {
    return pipeline::build_family_experiment(family, topo::PresetId::kA,
                                             topo::PresetScale::kReduced);
  };
}

/// The bisection the closed-form margin replaced, kept as its oracle and
/// built from public APIs only: the largest multiplier m in the bracket
/// under which the origin and every phase pass the standard checker with
/// the base demands scaled by m, found in 16 fixed halvings. Brackets
/// [1, margin_max], or [0, 1] when the plan fails at m = 1.
struct Bisection {
  double margin = 0.0;
  bool saturated = false;
  double bracket = 0.0;  // width of the bisected bracket
};

Bisection bisect_margin(const whatif::CaseFactory& factory,
                        const core::Plan& plan,
                        const whatif::WhatIfParams& params) {
  migration::MigrationCase mig = factory();
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, params.checker);
  auto* demand_checker = dynamic_cast<constraints::DemandChecker*>(
      &bundle.checker->checker(bundle.checker->size() - 1));
  EXPECT_NE(demand_checker, nullptr);
  core::StateEvaluator evaluator(mig.task, *bundle.checker,
                                 /*use_cache=*/false);
  const traffic::DemandSet base = mig.task.demands;
  const auto safe_at = [&](double multiplier) {
    demand_checker->set_demands(traffic::scaled(base, multiplier));
    core::CountVector done(
        static_cast<std::size_t>(mig.task.num_action_types()), 0);
    if (!evaluator.feasible(done)) return false;
    for (const core::Phase& phase : plan.phases()) {
      done[static_cast<std::size_t>(phase.type)] +=
          static_cast<std::int32_t>(phase.block_indices.size());
      if (!evaluator.feasible(done)) return false;
    }
    return true;
  };

  Bisection out;
  if (safe_at(params.margin_max)) {
    out.margin = params.margin_max;
    out.saturated = true;
    return out;
  }
  double lo = 1.0;
  double hi = params.margin_max;
  if (!safe_at(1.0)) {
    lo = 0.0;
    hi = 1.0;
  }
  out.bracket = hi - lo;
  for (int i = 0; i < 16; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (safe_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.margin = lo;
  return out;
}

/// run_whatif's margin against the oracle: at or above it, by at most one
/// bisection step.
whatif::WhatIfReport expect_margin_matches_oracle(
    const whatif::CaseFactory& factory, const core::Plan& plan,
    const whatif::WhatIfParams& params, const std::string& what) {
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);
  const Bisection oracle = bisect_margin(factory, plan, params);
  EXPECT_EQ(oracle.saturated, report.margin_saturated) << what;
  EXPECT_GE(report.safe_growth_margin, oracle.margin) << what;
  EXPECT_LE(report.safe_growth_margin - oracle.margin,
            oracle.bracket / 65536.0)
      << what;
  return report;
}

class WhatIfFamily
    : public ::testing::TestWithParam<topo::TopologyFamily> {};

TEST_P(WhatIfFamily, SmokeSweepCompletesAndReportsEveryPhase) {
  const whatif::CaseFactory factory = family_factory(GetParam());
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 12;
  params.seed = 7;
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);

  EXPECT_EQ(report.trajectories, 12);
  EXPECT_EQ(report.trajectories_run, 12);
  EXPECT_FALSE(report.stopped);
  EXPECT_EQ(report.phases.size(), plan.phases().size());
  EXPECT_GE(report.safe_fraction, 0.0);
  EXPECT_LE(report.safe_fraction, 1.0);
  EXPECT_DOUBLE_EQ(
      report.safe_fraction,
      static_cast<double>(report.trajectories_run - report.unsafe) / 12.0);
  // Every trajectory reaches phase 0 (or broke there), so the first row
  // saw all of them.
  ASSERT_FALSE(report.phases.empty());
  EXPECT_EQ(report.phases[0].evaluated, 12);
  EXPECT_GE(report.safe_growth_margin, 0.0);
  EXPECT_LE(report.safe_growth_margin, params.margin_max);

  const json::Value doc = whatif::report_to_json(report, params);
  EXPECT_EQ(doc.get_string("schema", ""), "klotski.whatif.v1");
  EXPECT_EQ(doc.get_int("trajectories_run", -1), 12);
}

/// Where the sweep's demand checks went (obs counters, read as deltas).
struct CheckTally {
  long long checks = 0;  // demand checks the walk and margin pass made
  long long scoped = 0;
  long long quotient = 0;
  long long fabric = 0;  // scoped checks the quotient did not apply to

  static CheckTally now() {
    obs::Registry& reg = obs::Registry::global();
    return CheckTally{reg.counter("checker.composite.checks").value(),
                      reg.counter("quotient.scoped_checks").value(),
                      reg.counter("quotient.checks").value(),
                      reg.counter("quotient.fallback_not_applicable").value()};
  }
  CheckTally since(const CheckTally& before) const {
    return CheckTally{checks - before.checks, scoped - before.scoped,
                      quotient - before.quotient, fabric - before.fabric};
  }
};

// Each sweep worker opens the search scope a planner opens: every demand
// check of a Clos sweep is answered on the quotient, and flat and reconf,
// whose partitions are discrete, route every one on the fabric.
TEST_P(WhatIfFamily, EveryDemandCheckRoutesWhereASearchWould) {
  const whatif::CaseFactory factory = family_factory(GetParam());
  const core::Plan plan = plan_family(factory());
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);

  whatif::WhatIfParams params;
  params.trajectories = 12;
  params.seed = 7;
  params.threads = 2;
  const CheckTally before = CheckTally::now();
  whatif::run_whatif(factory, plan, params);
  const CheckTally tally = CheckTally::now().since(before);
  obs::set_metrics_enabled(was_enabled);

  EXPECT_GT(tally.scoped, 0);
  EXPECT_EQ(tally.scoped, tally.checks);
  if (GetParam() == topo::TopologyFamily::kClos) {
    EXPECT_EQ(tally.quotient, tally.scoped);
    EXPECT_EQ(tally.fabric, 0);
  } else {
    EXPECT_EQ(tally.quotient, 0);
    EXPECT_EQ(tally.fabric, tally.scoped);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, WhatIfFamily,
                         ::testing::Values(topo::TopologyFamily::kClos,
                                           topo::TopologyFamily::kFlat,
                                           topo::TopologyFamily::kReconf),
                         [](const auto& info) {
                           return topo::to_string(info.param);
                         });

TEST(WhatIf, SameSeedSameReportBytes) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 16;
  params.seed = 42;
  const std::string first = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  const std::string second = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  EXPECT_EQ(first, second);
}

TEST(WhatIf, ReportIsInvariantToThreadCount) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 24;
  params.seed = 3;
  params.threads = 1;
  const std::string serial = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  params.threads = 4;
  const std::string parallel = whatif::report_text(
      whatif::run_whatif(factory, plan, params), params);
  EXPECT_EQ(serial, parallel);
}

// Growth that carries a forecast past the routers' fixed-point range
// (2^15 Tbps) is refused with an error naming the volume. Both workers of
// the pool throw; the sweep joins them and rethrows instead of
// terminating, and the error is the lowest chunk's at any thread count.
TEST(WhatIf, DemandsPastTheFixedPointRangeAreRefusedFromAnyWorker) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 8;
  params.growth_min = 1e6;
  params.growth_max = 1e6;
  std::string errors[2];
  for (const int threads : {1, 2}) {
    params.threads = threads;
    try {
      whatif::run_whatif(factory, plan, params);
      ADD_FAILURE() << "a sweep past the range ran at threads=" << threads;
    } catch (const std::invalid_argument& e) {
      errors[threads - 1] = e.what();
    }
    EXPECT_NE(errors[threads - 1].find("volume_tbps"), std::string::npos)
        << errors[threads - 1];
  }
  EXPECT_EQ(errors[0], errors[1]);
}

TEST(WhatIf, AggressiveDemandKnobsSurfaceUnsafeFutures) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  // A plan that is fine under its own forecast must look unsafe when the
  // sampled futures run far hotter than anything it was planned against.
  whatif::WhatIfParams params;
  params.trajectories = 40;
  params.growth_max = 0.05;
  params.surge_factor_max = 3.0;
  params.bias_factor_max = 2.5;
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);

  EXPECT_GT(report.unsafe, 0);
  EXPECT_LT(report.safe_fraction, 1.0);
  EXPECT_GE(report.first_break_phase, 0);
  EXPECT_GT(report.first_break_multiplier, 1.0);
  long long histogram_total = 0;
  for (const long long count : report.break_histogram) {
    histogram_total += count;
  }
  EXPECT_EQ(histogram_total, report.unsafe);
  long long per_phase_unsafe = 0;
  for (const whatif::PhaseStats& row : report.phases) {
    per_phase_unsafe += row.unsafe;
  }
  EXPECT_EQ(per_phase_unsafe, report.unsafe);
}

TEST(WhatIf, SafePlanEarnsAMarginAboveOne) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 8;
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);
  // The canonical preset-A plan passes its audit with headroom, so theta
  // over its peak utilization is a tolerated multiplier strictly above 1.
  EXPECT_GT(report.safe_growth_margin, 1.0);
}

// The closed form (theta over the peak utilization of the origin and every
// phase, or 0 on a structural or routing failure) must agree with a 16-step
// bisection over the whole stack in all four regimes: a safe plan, a plan
// already unsafe at m = 1, a saturated margin, and a structural failure.
TEST_P(WhatIfFamily, ClosedFormMarginMatchesTheBisectionOracle) {
  const whatif::CaseFactory factory = family_factory(GetParam());
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 2;
  const whatif::WhatIfReport safe =
      expect_margin_matches_oracle(factory, plan, params, "safe plan");
  EXPECT_GT(safe.safe_growth_margin, 1.0);
  EXPECT_FALSE(safe.margin_saturated);
  const double peak = params.checker.demand.max_utilization /
                      safe.safe_growth_margin;

  whatif::WhatIfParams unsafe = params;
  unsafe.checker.demand.max_utilization = 0.8 * peak;
  const whatif::WhatIfReport below = expect_margin_matches_oracle(
      factory, plan, unsafe, "theta below the plan's peak");
  EXPECT_LT(below.safe_growth_margin, 1.0);
  EXPECT_GT(below.safe_growth_margin, 0.0);

  whatif::WhatIfParams capped = params;
  capped.margin_max = 1.0 + (safe.safe_growth_margin - 1.0) / 2.0;
  const whatif::WhatIfReport saturated = expect_margin_matches_oracle(
      factory, plan, capped, "small margin_max");
  EXPECT_TRUE(saturated.margin_saturated);
  EXPECT_EQ(saturated.safe_growth_margin, capped.margin_max);

  // One port per switch: the origin already fails the port check, and no
  // demand multiplier repairs that.
  const whatif::CaseFactory no_ports = [&factory] {
    migration::MigrationCase mig = factory();
    for (const topo::Switch& s : mig.task.topo->switches()) {
      mig.task.topo->sw(s.id).max_ports = 1;
    }
    return mig;
  };
  const whatif::WhatIfReport structural = expect_margin_matches_oracle(
      no_ports, plan, params, "structural failure");
  EXPECT_EQ(structural.safe_growth_margin, 0.0);
  EXPECT_FALSE(structural.margin_saturated);
}

// A phase that fails a structural check breaks every trajectory reaching
// it as an unroutable break with utilization 0. The walk checks that phase
// once for all trajectories, so it must not read a utilization the demand
// checker never produced: the last demand check before it belongs to
// another trajectory, possibly one that broke on theta. The shipped SSW
// forklift adds each plane's new SSWs before draining the old ones, so a
// per-plane cap the origin meets fails a middle phase; the hot demand
// knobs make other trajectories break on theta before they reach it.
TEST(WhatIf, StructuralBreakInAMiddlePhaseIsUnroutableForEveryTrajectory) {
  const npd::NpdDocument doc = npd::parse_npd(util::read_file(
      std::string(KLOTSKI_SOURCE_DIR) +
      "/examples/npd/region-c-ssw-forklift.npd.json"));
  const whatif::CaseFactory factory = [&doc] { return npd::build_case(doc); };
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 24;
  params.seed = 3;
  params.growth_max = 0.05;
  params.surge_factor_max = 3.0;
  params.bias_factor_max = 2.5;
  params.checker.space_power.max_present_per_plane = 4;

  // The first phase the cap fails, found with the space/power checker alone.
  int failing = -1;
  {
    migration::MigrationCase mig = factory();
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(mig.task, params.checker);
    core::StateEvaluator evaluator(mig.task, *bundle.checker, false);
    constraints::SpacePowerChecker space_power(params.checker.space_power);
    core::CountVector done(
        static_cast<std::size_t>(mig.task.num_action_types()), 0);
    evaluator.materialize(done);
    ASSERT_TRUE(space_power.check(*mig.task.topo).satisfied);
    const std::vector<core::Phase> phases = plan.phases();
    for (std::size_t p = 0; p < phases.size() && failing < 0; ++p) {
      done[static_cast<std::size_t>(phases[p].type)] +=
          static_cast<std::int32_t>(phases[p].block_indices.size());
      evaluator.materialize(done);
      if (!space_power.check(*mig.task.topo).satisfied) {
        failing = static_cast<int>(p);
      }
    }
    ASSERT_GT(failing, 0);
    ASSERT_LT(failing + 1, static_cast<int>(phases.size()));
  }

  params.threads = 1;
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params);
  const whatif::PhaseStats& row =
      report.phases[static_cast<std::size_t>(failing)];
  ASSERT_GT(row.evaluated, 0);
  // Every trajectory that reached the phase broke there, unroutable; the
  // others broke earlier on theta.
  EXPECT_EQ(row.unsafe, row.evaluated);
  EXPECT_EQ(report.break_histogram[static_cast<std::size_t>(failing)],
            row.evaluated);
  EXPECT_EQ(report.unroutable, row.evaluated);
  EXPECT_GT(report.unsafe, report.unroutable);
  // No break at the phase folds into its worst case.
  EXPECT_EQ(row.worst_utilization, 0.0);
  EXPECT_EQ(row.min_headroom, params.checker.demand.max_utilization);
  // Nothing runs past the failing phase, and the plan has no margin.
  for (std::size_t p = static_cast<std::size_t>(failing) + 1;
       p < report.phases.size(); ++p) {
    EXPECT_EQ(report.phases[p].evaluated, 0) << "phase " << p;
  }
  EXPECT_EQ(report.safe_growth_margin, 0.0);

  const std::string serial = whatif::report_text(report, params);
  params.threads = 3;
  EXPECT_EQ(serial, whatif::report_text(
                        whatif::run_whatif(factory, plan, params), params));
}

TEST(WhatIf, StopFlagReportsPartialSweepAsStopped) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 10;
  std::atomic<bool> stop{true};
  const whatif::WhatIfReport report =
      whatif::run_whatif(factory, plan, params, &stop);
  EXPECT_TRUE(report.stopped);
  EXPECT_EQ(report.trajectories_run, 0);
  const json::Value doc = whatif::report_to_json(report, params);
  EXPECT_TRUE(doc.get_bool("stopped", false));
}

TEST(WhatIf, RejectsBadParams) {
  const whatif::CaseFactory factory =
      family_factory(topo::TopologyFamily::kClos);
  const core::Plan plan = plan_family(factory());

  whatif::WhatIfParams params;
  params.trajectories = 0;
  EXPECT_THROW(whatif::run_whatif(factory, plan, params),
               std::invalid_argument);
  params.trajectories = 4;
  params.surge_factor_min = -0.5;
  EXPECT_THROW(whatif::run_whatif(factory, plan, params),
               std::invalid_argument);
  params.surge_factor_min = 0.8;
  params.margin_max = 0.5;
  EXPECT_THROW(whatif::run_whatif(factory, plan, params),
               std::invalid_argument);
}

}  // namespace
}  // namespace klotski
