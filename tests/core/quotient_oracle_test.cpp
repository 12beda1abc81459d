// Quotient oracle suite: inside a search scope the demand and port checks
// answer from the task's quotient (core/search_scope.h), and every such
// verdict must equal the fabric's. A second checker bundle on the same
// task never opens a scope and is the oracle.
//
//  * Every check the A* planner makes on the golden cases (Clos A-C, flat
//    and reconf A, reduced) and on full-scale Clos C, through a composite
//    that asks both bundles.
//  * Seeded count-vector walks, 200 states per family, comparing with
//    equality, never within a tolerance: every bundle's fixed-point load
//    against each member circuit's fabric load, the demand checkers'
//    verdicts, violation strings and last_max_utilization() (the full
//    peak, theta failures included), and the port and composite verdicts,
//    for both split modes, funneling margins 0 and 0.1, and a task with
//    one capacity-edited circuit. The walks rescale the demand volumes at
//    every step, as a what-if sweep does, so many states fail on theta.
//  * Edge cases: flat and reconf have discrete partitions and stay on the
//    fabric; a corrupted partition is refused by Quotient::build; a demand
//    whose endpoint list splits a class is routed on the fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "klotski/constraints/demand_checker.h"
#include "klotski/core/search_scope.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/migration/symmetry.h"
#include "klotski/npd/npd_io.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/util/rng.h"

namespace klotski {
namespace {

using constraints::Verdict;
using pipeline::CheckerBundle;
using pipeline::CheckerConfig;
using topo::PresetId;
using topo::PresetScale;
using topo::TopologyFamily;

/// Where the scoped demand checks went (obs counters, read as deltas).
struct Tally {
  long long scoped = 0;
  long long quotient = 0;
  long long not_applicable = 0;

  static Tally now() {
    obs::Registry& reg = obs::Registry::global();
    return Tally{reg.counter("quotient.scoped_checks").value(),
                 reg.counter("quotient.checks").value(),
                 reg.counter("quotient.fallback_not_applicable").value()};
  }
  Tally since(const Tally& before) const {
    return Tally{scoped - before.scoped, quotient - before.quotient,
                 not_applicable - before.not_applicable};
  }
};

class QuotientOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override { obs::set_metrics_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

migration::MigrationCase make_case(TopologyFamily family, PresetId preset,
                                   PresetScale scale) {
  return npd::build_case(npd::parse_npd(npd::dump_npd(pipeline::synth_document(
      family, preset, scale, npd::default_migration(family)))));
}

constraints::DemandChecker& demand_checker(CheckerBundle& bundle) {
  return dynamic_cast<constraints::DemandChecker&>(
      bundle.checker->checker(bundle.checker->size() - 1));
}

constraints::Checker& port_checker(CheckerBundle& bundle) {
  return bundle.checker->checker(0);
}

/// The composite a planner searches with: it answers with the scoped
/// bundle and asks the fabric bundle the same question.
class OracleComposite : public constraints::CompositeChecker {
 public:
  OracleComposite(CheckerBundle& scoped, CheckerBundle& fabric)
      : scoped_(scoped), fabric_(fabric) {}

  Verdict check(const topo::Topology& topo) override {
    Verdict verdict = scoped_.checker->check(topo);
    const Verdict oracle = fabric_.checker->check(topo);
    ++checks;
    if (verdict.satisfied != oracle.satisfied ||
        verdict.violation != oracle.violation) {
      ++mismatches;
      ADD_FAILURE() << "scoped: " << verdict.violation
                    << " | fabric: " << oracle.violation;
    }
    return verdict;
  }
  void open_scope(const traffic::Quotient* quotient) override {
    had_quotient = quotient != nullptr;
    scoped_.checker->open_scope(quotient);
  }
  void close_scope() override { scoped_.checker->close_scope(); }

  long long checks = 0;
  long long mismatches = 0;
  bool had_quotient = false;

 private:
  CheckerBundle& scoped_;
  CheckerBundle& fabric_;
};

struct PlannerCase {
  TopologyFamily family;
  PresetId preset;
  PresetScale scale;
  bool expect_quotient;
};

void plan_with_oracle(const PlannerCase& pc) {
  migration::MigrationCase mig = make_case(pc.family, pc.preset, pc.scale);
  CheckerBundle scoped = pipeline::make_standard_checker(mig.task, {});
  CheckerBundle fabric = pipeline::make_standard_checker(mig.task, {});
  OracleComposite oracle(scoped, fabric);
  const Tally before = Tally::now();
  const core::Plan plan = pipeline::make_planner("astar")->plan(
      mig.task, oracle, core::PlannerOptions{});
  const Tally tally = Tally::now().since(before);
  EXPECT_TRUE(plan.found) << plan.failure;
  EXPECT_EQ(oracle.mismatches, 0);
  EXPECT_EQ(oracle.had_quotient, pc.expect_quotient);
  EXPECT_EQ(plan.stats.sat_checks, oracle.checks);
  EXPECT_EQ(tally.quotient + tally.not_applicable, tally.scoped);
  if (pc.expect_quotient) {
    EXPECT_EQ(tally.quotient, tally.scoped);
  } else {
    EXPECT_EQ(tally.quotient, 0);
    EXPECT_EQ(tally.not_applicable, tally.scoped);
  }
}

TEST_F(QuotientOracle, EveryGoldenPlannerCheckMatchesTheFabric) {
  for (const PlannerCase& pc : {
           PlannerCase{TopologyFamily::kClos, PresetId::kA,
                       PresetScale::kReduced, true},
           PlannerCase{TopologyFamily::kClos, PresetId::kB,
                       PresetScale::kReduced, true},
           PlannerCase{TopologyFamily::kClos, PresetId::kC,
                       PresetScale::kReduced, true},
           PlannerCase{TopologyFamily::kFlat, PresetId::kA,
                       PresetScale::kReduced, false},
           PlannerCase{TopologyFamily::kReconf, PresetId::kA,
                       PresetScale::kReduced, false},
       }) {
    SCOPED_TRACE(std::string(topo::to_string(pc.family)) + " preset " +
                 std::to_string(static_cast<int>(pc.preset)));
    plan_with_oracle(pc);
  }
}

TEST_F(QuotientOracle, EveryFullScaleClosCPlannerCheckMatchesTheFabric) {
  plan_with_oracle(PlannerCase{TopologyFamily::kClos, PresetId::kC,
                               PresetScale::kFull, true});
}

/// Routes the task's demands on the quotient and on the fabric and expects
/// every circuit's fabric load, in both directions, to equal its bundle's.
void expect_bundle_loads_equal(const traffic::Quotient& q,
                               const traffic::DemandSet& demands,
                               traffic::SplitMode mode, int step) {
  const topo::Topology& topo = q.topology();
  traffic::QuotientRouter quotient_router(q);
  ASSERT_TRUE(quotient_router.bind(demands));
  traffic::EcmpRouter fabric_router(topo, mode);
  traffic::LoadVector loads;
  const bool routable = fabric_router.assign_all(demands, loads);
  ASSERT_EQ(quotient_router.assign_all(mode), routable) << "step " << step;
  if (!routable) return;
  for (const topo::Circuit& c : topo.circuits()) {
    const std::uint32_t b = q.bundle_of(c.id);
    // Slot 2c runs a -> b; the bundle's direction 0 runs x -> y.
    const bool forward = q.class_of(c.a) == q.bundles()[b].x;
    const auto slot = static_cast<std::size_t>(c.id) * 2;
    ASSERT_EQ(loads[slot], quotient_router.loads()[2 * b + (forward ? 0 : 1)])
        << "step " << step << " circuit " << c.id;
    ASSERT_EQ(loads[slot + 1],
              quotient_router.loads()[2 * b + (forward ? 1 : 0)])
        << "step " << step << " circuit " << c.id;
  }
}

/// Scales the task's demand volumes at a walk step; the membership stays.
using VolumeRescale = std::function<double(int step)>;

double no_rescale(int /*step*/) { return 1.0; }

struct WalkResult {
  Tally tally;             // where the scoped demand checks went
  int theta_failures = 0;  // states whose demand check failed on theta
};

/// Materializes seeded count vectors inside a search scope and compares
/// the scoped checkers with a fabric bundle on each: mostly single-block
/// steps, as a search moves, with a random jump every tenth state. Before
/// each check both demand checkers get the task's demands scaled by
/// `rescale(step)`, through set_demands, as a what-if trajectory does.
WalkResult walk(migration::MigrationCase& mig, const CheckerConfig& config,
                std::uint64_t seed, bool expect_quotient,
                const VolumeRescale& rescale) {
  CheckerBundle scoped = pipeline::make_standard_checker(mig.task, config);
  CheckerBundle fabric = pipeline::make_standard_checker(mig.task, config);
  core::StateEvaluator evaluator(mig.task, *scoped.checker, false);
  WalkResult result;
  const Tally before = Tally::now();
  {
    const core::SearchScope scope(evaluator, *scoped.checker);
    EXPECT_EQ(scope.quotient() != nullptr, expect_quotient);
    const core::CountVector& target = evaluator.target();
    core::CountVector counts(target.size(), 0);
    util::Rng rng(seed);
    const topo::Topology& topo = *mig.task.topo;
    for (int step = 0; step < 200; ++step) {
      if (step % 10 == 9) {
        for (std::size_t t = 0; t < counts.size(); ++t) {
          counts[t] = static_cast<std::int32_t>(rng.uniform_int(0, target[t]));
        }
      } else {
        const std::size_t t = rng.index(counts.size());
        const bool up = counts[t] == 0 ||
                        (counts[t] < target[t] && rng.chance(0.5));
        counts[t] += up ? 1 : -1;
      }
      evaluator.materialize(counts);
      const traffic::DemandSet demands =
          traffic::scaled(mig.task.demands, rescale(step));
      demand_checker(scoped).set_demands(demands);
      demand_checker(fabric).set_demands(demands);
      const long long quotient_before = Tally::now().quotient;
      const Verdict demand = demand_checker(scoped).check(topo);
      const bool on_quotient = Tally::now().quotient > quotient_before;
      EXPECT_EQ(on_quotient, expect_quotient) << "step " << step;
      const Verdict demand_oracle = demand_checker(fabric).check(topo);
      EXPECT_EQ(demand.satisfied, demand_oracle.satisfied) << "step " << step;
      EXPECT_EQ(demand.violation, demand_oracle.violation)
          << "step " << step;
      EXPECT_EQ(demand_checker(scoped).last_max_utilization(),
                demand_checker(fabric).last_max_utilization())
          << "step " << step;
      if (!demand.satisfied &&
          demand.violation.find("theta") != std::string::npos) {
        ++result.theta_failures;
      }
      if (on_quotient) {
        expect_bundle_loads_equal(*scope.quotient(), demands, config.routing,
                                  step);
      }
      EXPECT_EQ(port_checker(scoped).check(topo).violation,
                port_checker(fabric).check(topo).violation)
          << "step " << step;
      EXPECT_EQ(scoped.checker->check(topo).satisfied,
                fabric.checker->check(topo).satisfied)
          << "step " << step;
    }
  }
  mig.task.reset_to_original();
  result.tally = Tally::now().since(before);
  return result;
}

TEST_F(QuotientOracle, RandomWalksMatchTheFabricInBothSplitModes) {
  for (const TopologyFamily family :
       {TopologyFamily::kClos, TopologyFamily::kFlat,
        TopologyFamily::kReconf}) {
    for (const traffic::SplitMode mode :
         {traffic::SplitMode::kEqualSplit,
          traffic::SplitMode::kCapacityWeighted}) {
      for (const double margin : {0.0, 0.1}) {
        SCOPED_TRACE(std::string(topo::to_string(family)) + " mode " +
                     std::to_string(static_cast<int>(mode)) + " margin " +
                     std::to_string(margin));
        migration::MigrationCase mig =
            make_case(family, PresetId::kB, PresetScale::kReduced);
        CheckerConfig config;
        config.routing = mode;
        config.demand.funneling_margin = margin;
        const bool clos = family == TopologyFamily::kClos;
        // Volumes between 0.5x and 3x the task's, drawn per step.
        util::Rng volume_rng(31 + static_cast<int>(mode));
        const WalkResult result =
            walk(mig, config, 7 + static_cast<int>(mode), clos,
                 [&](int) { return volume_rng.uniform_real(0.5, 3.0); });
        const Tally& tally = result.tally;
        EXPECT_GT(result.theta_failures, 0);
        // Port failures short-circuit the composite before the demand
        // checker, so scoped checks exceed the walk's explicit ones.
        EXPECT_GE(tally.scoped, 200);
        EXPECT_EQ(tally.quotient + tally.not_applicable, tally.scoped);
        if (clos) {
          EXPECT_GT(tally.quotient, 0);
        } else {
          EXPECT_EQ(tally.not_applicable, tally.scoped);
        }
      }
    }
  }
}

TEST_F(QuotientOracle, CapacityEditedCircuitRefinesThePartition) {
  migration::MigrationCase mig =
      make_case(TopologyFamily::kClos, PresetId::kB, PresetScale::kReduced);
  topo::Topology& topo = *mig.task.topo;
  // Halve one loaded circuit: it becomes its own kind, so the classes
  // around it split, and the walk must still agree with the fabric.
  mig.task.reset_to_original();
  topo::CircuitId edited = topo::kInvalidCircuit;
  for (const topo::Circuit& c : topo.circuits()) {
    if (topo.circuit_carries_traffic(c.id)) edited = c.id;
  }
  ASSERT_NE(edited, topo::kInvalidCircuit);
  const auto classes = [&] {
    CheckerBundle bundle = pipeline::make_standard_checker(mig.task, {});
    core::StateEvaluator evaluator(mig.task, *bundle.checker, false);
    const core::SearchScope scope(evaluator, *bundle.checker);
    return scope.quotient() == nullptr ? topo.num_switches()
                                       : scope.quotient()->num_classes();
  };
  const std::size_t before = classes();
  topo.circuit(edited).capacity_tbps *= 0.5;
  topo.bump_state_version();
  EXPECT_GT(classes(), before);
  for (const double margin : {0.0, 0.1}) {
    CheckerConfig config;
    config.demand.funneling_margin = margin;
    const Tally tally = walk(mig, config, 11, true, no_rescale).tally;
    EXPECT_GT(tally.quotient, 0);
  }
}

TEST_F(QuotientOracle, CorruptedPartitionIsRefused) {
  migration::MigrationCase mig =
      make_case(TopologyFamily::kClos, PresetId::kB, PresetScale::kReduced);
  CheckerBundle bundle = pipeline::make_standard_checker(mig.task, {});
  core::StateEvaluator evaluator(mig.task, *bundle.checker, false);
  const topo::Topology& topo = *mig.task.topo;
  const core::SearchKinds kinds = core::search_kinds(evaluator);
  const migration::SymmetryPartition partition =
      migration::partition_of(migration::refine_colors(
          topo, kinds.switch_kind, kinds.circuit_kind));
  ASSERT_LT(partition.num_blocks(), topo.num_switches());
  ASSERT_TRUE(traffic::Quotient::build(topo, partition.class_of,
                                       kinds.switch_kind, kinds.circuit_kind)
                  .has_value());

  // Two classes of the fixed point are told apart by some seed or
  // neighborhood, so forcing them into one must fail the verification:
  // every pair of the first classes, merged.
  const auto renumbered = [](std::vector<std::int32_t> class_of) {
    std::vector<std::int32_t> dense(class_of.size() + 1, -1);
    std::int32_t next = 0;
    for (std::int32_t& c : class_of) {
      auto& d = dense[static_cast<std::size_t>(c)];
      if (d < 0) d = next++;
      c = d;
    }
    return class_of;
  };
  const auto limit = std::min<std::int32_t>(
      12, static_cast<std::int32_t>(partition.num_blocks()));
  for (std::int32_t a = 0; a < limit; ++a) {
    for (std::int32_t b = a + 1; b < limit; ++b) {
      std::vector<std::int32_t> merged = partition.class_of;
      for (std::int32_t& c : merged) {
        if (c == b) c = a;
      }
      EXPECT_FALSE(traffic::Quotient::build(topo, renumbered(merged),
                                            kinds.switch_kind,
                                            kinds.circuit_kind)
                       .has_value())
          << "classes " << a << " and " << b << " merged";
    }
  }
  // Swapping two switches of different classes keeps every class size but
  // still breaks the equivalence.
  const topo::SwitchId x = partition.blocks[0].front();
  const topo::SwitchId y = partition.blocks[1].front();
  std::vector<std::int32_t> swapped = partition.class_of;
  std::swap(swapped[static_cast<std::size_t>(x)],
            swapped[static_cast<std::size_t>(y)]);
  EXPECT_FALSE(traffic::Quotient::build(topo, renumbered(swapped),
                                        kinds.switch_kind, kinds.circuit_kind)
                   .has_value());
}

TEST_F(QuotientOracle, DemandSplittingAClassIsRoutedOnTheFabric) {
  migration::MigrationCase mig =
      make_case(TopologyFamily::kClos, PresetId::kB, PresetScale::kReduced);
  CheckerBundle scoped = pipeline::make_standard_checker(mig.task, {});
  CheckerBundle fabric = pipeline::make_standard_checker(mig.task, {});
  core::StateEvaluator evaluator(mig.task, *scoped.checker, false);
  const core::SearchScope scope(evaluator, *scoped.checker);
  ASSERT_NE(scope.quotient(), nullptr);

  // Drop one source of the first demand with several: its class is now
  // only partly a source.
  traffic::DemandSet demands = mig.task.demands;
  auto it = std::find_if(demands.begin(), demands.end(),
                         [](const traffic::Demand& d) {
                           return d.sources.size() > 1;
                         });
  ASSERT_NE(it, demands.end());
  it->sources.pop_back();
  demand_checker(scoped).set_demands(demands);
  demand_checker(fabric).set_demands(demands);

  const topo::Topology& topo = *mig.task.topo;
  const core::CountVector& target = evaluator.target();
  for (const core::CountVector& counts :
       {core::CountVector(target.size(), 0), target}) {
    evaluator.materialize(counts);
    const Tally before = Tally::now();
    const Verdict verdict = demand_checker(scoped).check(topo);
    const Tally tally = Tally::now().since(before);
    EXPECT_EQ(tally.scoped, 1);
    EXPECT_EQ(tally.not_applicable, 1);
    EXPECT_EQ(verdict.violation, demand_checker(fabric).check(topo).violation);
  }

  // Restoring the task's demands puts the checks back on the quotient.
  demand_checker(scoped).set_demands(mig.task.demands);
  const Tally before = Tally::now();
  demand_checker(scoped).check(topo);
  EXPECT_EQ(Tally::now().since(before).quotient, 1);
  mig.task.reset_to_original();
}

TEST_F(QuotientOracle, ChecksOutsideAScopeStayOnTheFabric) {
  migration::MigrationCase mig =
      make_case(TopologyFamily::kClos, PresetId::kB, PresetScale::kReduced);
  CheckerBundle bundle = pipeline::make_standard_checker(mig.task, {});
  const Tally before = Tally::now();
  {
    core::StateEvaluator evaluator(mig.task, *bundle.checker, false);
    const core::SearchScope scope(evaluator, *bundle.checker);
    bundle.checker->check(*mig.task.topo);
  }
  bundle.checker->check(*mig.task.topo);
  const Tally tally = Tally::now().since(before);
  EXPECT_EQ(tally.scoped, 1);
}

}  // namespace
}  // namespace klotski
