// The fixed-point load contract (DESIGN.md §3 "Fixed-point loads"):
//
//  * volumes, per-source shares and split shares round up, so a load is
//    never below its real value: a real-valued tie at theta passes when
//    every rounding is exact and fails when any rounds up;
//  * the fabric router and the quotient router compute the same integers,
//    so both decide a tie alike — on full-scale Clos D a search answers
//    every scoped check on the quotient;
//  * volumes and capacities outside the range are refused with an error
//    naming the field, never wrapped.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "klotski/constraints/demand_checker.h"
#include "klotski/npd/npd_io.h"
#include "klotski/obs/metrics.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/traffic/ecmp.h"
#include "klotski/traffic/quotient.h"

namespace klotski::traffic {
namespace {

using topo::ElementState;
using topo::Generation;
using topo::SwitchRole;

/// A source s, `width` middle switches m_i, and two targets t and u, each
/// m_i wired to s, t and u with 1 Tbps circuits. Demand "to-t" routes
/// s -> t and "to-u" routes s -> u: two target-set groups that both split
/// at s over the `width` circuits s - m_i, so each of those circuits
/// carries to_t / width + to_u / width.
struct Fan {
  topo::Topology topo;
  topo::SwitchId s = 0;
  topo::SwitchId t = 0;
  topo::SwitchId u = 0;
  std::vector<topo::SwitchId> middle;
  std::vector<topo::CircuitId> s_side;  // s - m_i, ascending ids
  DemandSet demands;
  // The partition {s}, {m_i}, {t}, {u}: the classes the fabric's symmetry
  // gives, numbered by first occurrence in switch-id order.
  std::vector<std::int32_t> class_of;

  Fan(int width, double to_t, double to_u) {
    s = topo.add_switch(SwitchRole::kRsw, Generation::kV1, {}, 64,
                        ElementState::kActive, "s");
    for (int i = 0; i < width; ++i) {
      middle.push_back(topo.add_switch(
          SwitchRole::kFsw, Generation::kV1, {}, 64, ElementState::kActive,
          std::string("m").append(std::to_string(i))));
    }
    t = topo.add_switch(SwitchRole::kEbb, Generation::kV1, {}, 64,
                        ElementState::kActive, "t");
    u = topo.add_switch(SwitchRole::kEbb, Generation::kV1, {}, 64,
                        ElementState::kActive, "u");
    for (const topo::SwitchId m : middle) {
      s_side.push_back(topo.add_circuit(s, m, 1.0, ElementState::kActive));
    }
    for (const topo::SwitchId m : middle) {
      topo.add_circuit(m, t, 1.0, ElementState::kActive);
      topo.add_circuit(m, u, 1.0, ElementState::kActive);
    }
    demands.push_back(Demand{"to-t", DemandKind::kEgress, {s}, {t}, to_t});
    demands.push_back(Demand{"to-u", DemandKind::kEgress, {s}, {u}, to_u});
    class_of.push_back(0);
    class_of.insert(class_of.end(), middle.size(), 1);
    class_of.push_back(2);
    class_of.push_back(3);
  }

  Quotient quotient() const {
    std::vector<std::uint64_t> switch_kind(class_of.begin(), class_of.end());
    std::optional<Quotient> q = Quotient::build(
        topo, class_of, switch_kind,
        std::vector<std::uint64_t>(topo.num_circuits(), 0));
    EXPECT_TRUE(q.has_value());
    return *std::move(q);
  }
};

/// Routes `fan` on the fabric and on its quotient, asserts that every
/// s - m_i circuit carries `expected` units on both, and returns the two
/// checkers' verdicts (fabric, quotient) after checking that they agree.
std::pair<constraints::Verdict, constraints::Verdict> verdicts(
    Fan& fan, Load expected, SplitMode mode) {
  EcmpRouter router(fan.topo, mode);
  LoadVector loads;
  EXPECT_TRUE(router.assign_all(fan.demands, loads));
  for (const topo::CircuitId c : fan.s_side) {
    EXPECT_EQ(loads[static_cast<std::size_t>(c) * 2], expected);
  }
  const Quotient q = fan.quotient();
  QuotientRouter quotient_router(q);
  EXPECT_TRUE(quotient_router.bind(fan.demands));
  EXPECT_TRUE(quotient_router.assign_all(mode));
  const std::uint32_t bundle = q.bundle_of(fan.s_side.front());
  EXPECT_EQ(quotient_router.loads()[2 * bundle], expected);

  constraints::DemandChecker fabric(router, fan.demands);
  constraints::DemandChecker scoped(router, fan.demands);
  scoped.open_scope(&q);
  obs::Counter& on_quotient =
      obs::Registry::global().counter("quotient.checks");
  const long long before = on_quotient.value();
  const constraints::Verdict a = fabric.check(fan.topo);
  const constraints::Verdict b = scoped.check(fan.topo);
  EXPECT_EQ(on_quotient.value() - before, 1);
  EXPECT_EQ(a.satisfied, b.satisfied);
  EXPECT_EQ(a.violation, b.violation);
  EXPECT_EQ(fabric.last_max_utilization(), scoped.last_max_utilization());
  return {a, b};
}

class FixedPoint : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override { obs::set_metrics_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(FixedPoint, ConversionRoundsUpAndOneUnitAboveThetaFails) {
  EXPECT_EQ(demand_load(Demand{"d", DemandKind::kEgress, {}, {}, 0.75}),
            3LL << 46);
  // 0.1 Tbps is not dyadic: its double sits just above 0.1, and the
  // conversion rounds the scaled value up to the next unit.
  const double tenth = 0.1;
  EXPECT_EQ(demand_load(Demand{"d", DemandKind::kEgress, {}, {}, tenth}),
            static_cast<Load>(std::ceil(tenth * kLoadUnitsPerTbps)));
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);

  // A unit is 2^-48 Tbps, coarser than the double's resolution of the
  // ratio on these capacities, so the load at theta · capacity passes and
  // one unit above it fails.
  const auto over = [](Load load, double capacity, double factor) {
    return utilization(load, capacity, factor) > 0.75;
  };
  const Load at_theta = 3LL << 46;  // 0.75 Tbps
  EXPECT_FALSE(over(at_theta, 1.0, 1.0));
  EXPECT_TRUE(over(at_theta + 1, 1.0, 1.0));
  const auto below = static_cast<Load>(std::floor(0.75 * 0.4 * 0x1p48));
  EXPECT_FALSE(over(below, 0.4, 1.0));
  EXPECT_TRUE(over(below + 1, 0.4, 1.0));
  // Funneling: 0.5 Tbps inflated by 1.5 on 1 Tbps is exactly theta.
  const Load half = Load{1} << 47;
  EXPECT_FALSE(over(half, 1.0, 1.5));
  EXPECT_TRUE(over(half + 1, 1.0, 1.5));
}

TEST_F(FixedPoint, ThreeWayTieAtThetaFailsOnBothRouters) {
  // Each s - m_i circuit carries 1/3 + 1.25/3 = 0.75 Tbps = theta in real
  // numbers, but neither third is dyadic: 2^48 and 1.25 · 2^48 both leave a
  // remainder mod 3, so each share rounds up and the circuit reads
  // 0.75 · 2^48 + 1 units.
  Fan fan(3, 1.0, 1.25);
  const auto [fabric, quotient] =
      verdicts(fan, (3LL << 46) + 1, SplitMode::kEqualSplit);
  EXPECT_FALSE(fabric.satisfied);
  EXPECT_NE(fabric.violation.find("(s - m0) at 75% > theta 75%"),
            std::string::npos)
      << fabric.violation;
}

TEST_F(FixedPoint, PowerOfTwoTieAtThetaPassesOnBothRouters) {
  // 1/4 + 2/4 = 0.75 Tbps on each s - m_i circuit, every share exact: the
  // load is theta · capacity to the unit, which is not above theta.
  for (const SplitMode mode :
       {SplitMode::kEqualSplit, SplitMode::kCapacityWeighted}) {
    Fan fan(4, 1.0, 2.0);
    const auto [fabric, quotient] = verdicts(fan, 3LL << 46, mode);
    EXPECT_TRUE(fabric.satisfied) << fabric.violation;
  }
}

TEST_F(FixedPoint, FullScaleClosDAnswersEveryScopedCheckOnTheQuotient) {
  migration::MigrationCase mig = npd::build_case(
      npd::parse_npd(npd::dump_npd(pipeline::synth_document(
          topo::TopologyFamily::kClos, topo::PresetId::kD,
          topo::PresetScale::kFull,
          npd::default_migration(topo::TopologyFamily::kClos)))));
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  obs::Registry& reg = obs::Registry::global();
  const long long scoped = reg.counter("quotient.scoped_checks").value();
  const long long quotient = reg.counter("quotient.checks").value();
  const core::Plan plan = pipeline::make_planner("astar")->plan(
      mig.task, *bundle.checker, core::PlannerOptions{});
  ASSERT_TRUE(plan.found) << plan.failure;
  const long long scoped_checks =
      reg.counter("quotient.scoped_checks").value() - scoped;
  EXPECT_EQ(scoped_checks, 2803);
  EXPECT_EQ(reg.counter("quotient.checks").value() - quotient, scoped_checks);
}

TEST_F(FixedPoint, RouterRefusesVolumesOutsideTheRange) {
  Fan fan(2, 1.0, 1.0);
  EcmpRouter router(fan.topo);
  LoadVector loads;
  for (const double bad : {1e300, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(), -1.0,
                           32768.0}) {
    DemandSet demands = fan.demands;
    demands[1].volume_tbps = bad;
    try {
      router.assign_all(demands, loads);
      ADD_FAILURE() << "volume " << bad << " was routed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'to-u': volume_tbps"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(router.assign(demands[1], loads), std::invalid_argument);
    const Quotient q = fan.quotient();
    QuotientRouter quotient_router(q);
    EXPECT_THROW(quotient_router.bind(demands), std::invalid_argument);
  }
  // Each volume fits, the total does not.
  DemandSet demands = fan.demands;
  demands[0].volume_tbps = 20000.0;
  demands[1].volume_tbps = 20000.0;
  try {
    router.assign_all(demands, loads);
    ADD_FAILURE() << "a 40000 Tbps set was routed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("total volume_tbps"),
              std::string::npos)
        << e.what();
  }
  // A zero volume carries nothing (a what-if growth of -100% reaches it).
  demands[0].volume_tbps = 0.0;
  demands[1].volume_tbps = 0.0;
  loads.clear();
  EXPECT_TRUE(router.assign_all(demands, loads));
  EXPECT_EQ(loads, LoadVector(fan.topo.num_circuits() * 2, 0));
}

TEST_F(FixedPoint, RouterRefusesCapacitiesOutsideTheRange) {
  for (const double bad : {1e300, std::numeric_limits<double>::infinity(),
                           0.0, 1e-9}) {
    Fan fan(2, 1.0, 1.0);
    fan.topo.circuit(fan.s_side[1]).capacity_tbps = bad;
    try {
      EcmpRouter router(fan.topo);
      ADD_FAILURE() << "capacity " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "circuit " + std::to_string(fan.s_side[1]) +
                    " capacity_tbps"),
                std::string::npos)
          << e.what();
    }
  }
}

// A router reads capacities from the topology as it routes, so an edit
// after construction reaches it: WCMP on a halved circuit splits like a
// router built after the edit.
TEST_F(FixedPoint, CapacityEditsReachALongLivedRouter) {
  Fan fan(2, 1.0, 1.0);
  EcmpRouter router(fan.topo, SplitMode::kCapacityWeighted);
  LoadVector before;
  ASSERT_TRUE(router.assign_all(fan.demands, before));

  fan.topo.circuit(fan.s_side[1]).capacity_tbps = 0.5;
  fan.topo.bump_state_version();
  LoadVector got;
  ASSERT_TRUE(router.assign_all(fan.demands, got));
  EcmpRouter fresh(fan.topo, SplitMode::kCapacityWeighted);
  LoadVector want;
  ASSERT_TRUE(fresh.assign_all(fan.demands, want));
  EXPECT_EQ(got, want);
  EXPECT_NE(got, before);
  // 2 Tbps from s split 2:1 over the s - m_i circuits.
  EXPECT_LT(got[static_cast<std::size_t>(fan.s_side[1]) * 2],
            got[static_cast<std::size_t>(fan.s_side[0]) * 2]);
}

// A capacity written out of range after construction is refused by the
// next call after the version bump, naming the circuit, in both split
// modes: a NaN or infinite capacity would otherwise make utilizations that
// never exceed theta.
TEST_F(FixedPoint, CapacityEditsOutsideTheRangeAreRefusedAfterABump) {
  for (const SplitMode mode :
       {SplitMode::kEqualSplit, SplitMode::kCapacityWeighted}) {
    for (const double bad : {1e300, std::numeric_limits<double>::infinity(),
                             0.0, std::numeric_limits<double>::quiet_NaN()}) {
      Fan fan(2, 1.0, 1.0);
      EcmpRouter router(fan.topo, mode);
      LoadVector loads;
      ASSERT_TRUE(router.assign_all(fan.demands, loads));
      fan.topo.circuit(fan.s_side[1]).capacity_tbps = bad;
      fan.topo.bump_state_version();
      try {
        router.assign_all(fan.demands, loads);
        ADD_FAILURE() << "capacity " << bad << " was routed";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "circuit " + std::to_string(fan.s_side[1]) +
                      " capacity_tbps"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace klotski::traffic
