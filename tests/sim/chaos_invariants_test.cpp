// Model-based chaos tests: seeded fault-injection sweeps through the replan
// driver must complete with zero invariant violations, reproduce
// byte-identical trajectories regardless of sweep thread count, and resume
// from a JSON-round-tripped checkpoint bit-identically (the self-test baked
// into every passing seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "klotski/json/json.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/sim/chaos.h"
#include "klotski/sim/fault_script.h"

namespace klotski {
namespace {

int seeds_from_env(int fallback) {
  const char* env = std::getenv("KLOTSKI_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return fallback;
  return std::max(1, std::atoi(env));
}

TEST(ChaosInvariants, PresetASweepPassesWithZeroViolations) {
  sim::ChaosParams params;
  params.preset = topo::PresetId::kA;
  const int seeds = seeds_from_env(100);
  const sim::ChaosSweepResult sweep =
      sim::run_chaos_sweep(0, seeds, 2, params);
  ASSERT_EQ(sweep.failures, 0) << "failing seeds: "
                               << [&] {
                                    std::string s;
                                    for (auto v : sweep.failing_seeds()) {
                                      s += std::to_string(v) + " ";
                                    }
                                    return s;
                                  }();
  for (const sim::ChaosVerdict& v : sweep.verdicts) {
    EXPECT_TRUE(v.completed) << "seed " << v.seed << ": " << v.failure;
    EXPECT_TRUE(v.invariants_ok) << "seed " << v.seed << ": " << v.failure;
    EXPECT_TRUE(v.resume_ok) << "seed " << v.seed << ": " << v.failure;
    EXPECT_FALSE(v.trajectory.empty()) << "seed " << v.seed;
  }
}

TEST(ChaosInvariants, PresetBSweepPassesWithZeroViolations) {
  sim::ChaosParams params;
  params.preset = topo::PresetId::kB;
  const int seeds = std::min(25, seeds_from_env(25));
  const sim::ChaosSweepResult sweep =
      sim::run_chaos_sweep(0, seeds, 2, params);
  EXPECT_EQ(sweep.failures, 0);
}

/// Family sweep: every seed must complete, hold the invariants, and pass
/// the baked-in checkpoint-resume self-test, exactly as the Clos sweeps do.
void run_family_sweep(topo::TopologyFamily family, int seeds) {
  sim::ChaosParams params;
  params.family = family;
  params.preset = topo::PresetId::kA;
  const sim::ChaosSweepResult sweep =
      sim::run_chaos_sweep(0, seeds, 2, params);
  ASSERT_EQ(sweep.failures, 0) << "failing seeds: "
                               << [&] {
                                    std::string s;
                                    for (auto v : sweep.failing_seeds()) {
                                      s += std::to_string(v) + " ";
                                    }
                                    return s;
                                  }();
  for (const sim::ChaosVerdict& v : sweep.verdicts) {
    EXPECT_TRUE(v.completed) << "seed " << v.seed << ": " << v.failure;
    EXPECT_TRUE(v.invariants_ok) << "seed " << v.seed << ": " << v.failure;
    EXPECT_TRUE(v.resume_ok) << "seed " << v.seed << ": " << v.failure;
    EXPECT_FALSE(v.trajectory.empty()) << "seed " << v.seed;
  }
}

TEST(ChaosInvariants, FlatSweepPassesWithZeroViolations) {
  run_family_sweep(topo::TopologyFamily::kFlat,
                   std::min(50, seeds_from_env(50)));
}

TEST(ChaosInvariants, ReconfSweepPassesWithZeroViolations) {
  run_family_sweep(topo::TopologyFamily::kReconf,
                   std::min(50, seeds_from_env(50)));
}

TEST(ChaosInvariants, FamilySeedsReproduceByteIdenticalTrajectories) {
  for (const auto family :
       {topo::TopologyFamily::kFlat, topo::TopologyFamily::kReconf}) {
    sim::ChaosParams params;
    params.family = family;
    params.preset = topo::PresetId::kA;
    const sim::ChaosVerdict first = sim::run_chaos_seed(7, params);
    const sim::ChaosVerdict second = sim::run_chaos_seed(7, params);
    EXPECT_EQ(first.trajectory, second.trajectory)
        << topo::to_string(family);
    EXPECT_EQ(first.executed_cost, second.executed_cost)
        << topo::to_string(family);
    EXPECT_EQ(first.phases, second.phases) << topo::to_string(family);
  }
}

TEST(ChaosInvariants, SweepVerdictsAreIdenticalAcrossThreadCounts) {
  sim::ChaosParams params;
  const int seeds = std::min(20, seeds_from_env(20));
  const sim::ChaosSweepResult serial =
      sim::run_chaos_sweep(100, seeds, 1, params);
  const sim::ChaosSweepResult threaded =
      sim::run_chaos_sweep(100, seeds, 4, params);
  ASSERT_EQ(serial.verdicts.size(), threaded.verdicts.size());
  for (std::size_t i = 0; i < serial.verdicts.size(); ++i) {
    const sim::ChaosVerdict& a = serial.verdicts[i];
    const sim::ChaosVerdict& b = threaded.verdicts[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.passed(), b.passed()) << "seed " << a.seed;
    // The trajectory is the byte-level determinism oracle: phase order,
    // steps, state signatures, and exact cost decimals must all match.
    EXPECT_EQ(a.trajectory, b.trajectory) << "seed " << a.seed;
    EXPECT_EQ(a.executed_cost, b.executed_cost) << "seed " << a.seed;
    EXPECT_EQ(a.replans, b.replans) << "seed " << a.seed;
  }
}

TEST(ChaosInvariants, SameSeedReproducesByteIdenticalTrajectory) {
  sim::ChaosParams params;
  const sim::ChaosVerdict first = sim::run_chaos_seed(7, params);
  const sim::ChaosVerdict second = sim::run_chaos_seed(7, params);
  EXPECT_EQ(first.trajectory, second.trajectory);
  EXPECT_EQ(first.executed_cost, second.executed_cost);
  EXPECT_EQ(first.phases, second.phases);
}

TEST(ChaosInvariants, FaultScriptIsDeterministicAndAvoidsOperatedElements) {
  const migration::MigrationCase mcase = pipeline::build_experiment(
      pipeline::ExperimentId::kA, topo::PresetScale::kReduced);
  sim::FaultScriptParams params;
  params.horizon = 40;
  params.expected_phases = 10;
  const sim::FaultScript a =
      sim::make_fault_script(3, mcase.task, params);
  const sim::FaultScript b =
      sim::make_fault_script(3, mcase.task, params);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].circuit, b.events[i].circuit);
    EXPECT_EQ(a.events[i].sw, b.events[i].sw);
    EXPECT_EQ(a.events[i].start_step, b.events[i].start_step);
  }

  // Collect operated elements; no fault may target one.
  std::vector<char> op_sw(mcase.task.topo->num_switches(), 0);
  std::vector<char> op_c(mcase.task.topo->num_circuits(), 0);
  for (const auto& blocks : mcase.task.blocks) {
    for (const auto& block : blocks) {
      for (const auto& op : block.ops) {
        if (op.kind == migration::ElementOp::Kind::kSwitch) {
          op_sw[static_cast<std::size_t>(op.id)] = 1;
        } else {
          op_c[static_cast<std::size_t>(op.id)] = 1;
        }
      }
    }
  }
  for (const sim::FaultEvent& e : a.events) {
    if (e.circuit != topo::kInvalidCircuit) {
      EXPECT_FALSE(op_c[static_cast<std::size_t>(e.circuit)]);
    }
    if (e.sw != topo::kInvalidSwitch) {
      EXPECT_FALSE(op_sw[static_cast<std::size_t>(e.sw)]);
    }
  }
}

TEST(ChaosInvariants, InjectorRestoresCapacitiesAfterRun) {
  migration::MigrationCase mcase = pipeline::build_experiment(
      pipeline::ExperimentId::kA, topo::PresetScale::kReduced);
  topo::Topology& topo = *mcase.task.topo;
  std::vector<double> before;
  for (const topo::Circuit& c : topo.circuits()) {
    before.push_back(c.capacity_tbps);
  }
  sim::FaultScriptParams params;
  params.horizon = 40;
  params.circuit_degrades = 4;
  const sim::FaultScript script =
      sim::make_fault_script(11, mcase.task, params);
  {
    sim::ScriptInjector injector(script, topo);
    std::vector<topo::SwitchId> dsw;
    std::vector<topo::CircuitId> dc;
    injector.apply(/*step=*/10, topo, dsw, dc);
    // The destructor restores.
  }
  for (std::size_t c = 0; c < before.size(); ++c) {
    EXPECT_EQ(topo.circuits()[c].capacity_tbps, before[c]) << "circuit " << c;
  }
}

// Warm-start replanning (DESIGN.md §11) is a latency optimization: every
// seed must reach the same verdict — pass/fail, invariants, trajectory,
// executed cost — whether re-plans repair the surviving suffix or start
// cold. This is the unit-test twin of the tier1.sh warm/cold parity gate.
// `require_warm_win` additionally demands that at least one seed actually
// exercised the repair path, so the parity check is not vacuous.
void run_warm_cold_parity(topo::TopologyFamily family, int seeds,
                          bool require_warm_win) {
  sim::ChaosParams warm_params;
  warm_params.family = family;
  warm_params.preset = topo::PresetId::kA;
  sim::ChaosParams cold_params = warm_params;
  cold_params.warm_repair = false;
  const sim::ChaosSweepResult warm =
      sim::run_chaos_sweep(0, seeds, 2, warm_params);
  const sim::ChaosSweepResult cold =
      sim::run_chaos_sweep(0, seeds, 2, cold_params);
  ASSERT_EQ(warm.verdicts.size(), cold.verdicts.size());
  int warm_wins = 0;
  for (std::size_t i = 0; i < warm.verdicts.size(); ++i) {
    const sim::ChaosVerdict& w = warm.verdicts[i];
    const sim::ChaosVerdict& c = cold.verdicts[i];
    ASSERT_EQ(w.seed, c.seed);
    EXPECT_EQ(w.passed(), c.passed()) << "seed " << w.seed;
    EXPECT_EQ(w.invariants_ok, c.invariants_ok) << "seed " << w.seed;
    EXPECT_EQ(w.trajectory, c.trajectory) << "seed " << w.seed;
    EXPECT_EQ(w.executed_cost, c.executed_cost) << "seed " << w.seed;
    // Cold runs must not report warm activity; warm accounting must be
    // internally consistent on every seed.
    EXPECT_EQ(c.warm_attempts, 0) << "seed " << c.seed;
    EXPECT_EQ(c.warm_wins, 0) << "seed " << c.seed;
    EXPECT_LE(w.warm_wins, w.warm_attempts) << "seed " << w.seed;
    if (w.warm_wins > 0) {
      EXPECT_TRUE(w.invariants_ok) << "seed " << w.seed;
      ++warm_wins;
    }
  }
  if (require_warm_win) {
    EXPECT_GT(warm_wins, 0);
  }
}

TEST(ChaosInvariants, WarmRepairIsSafetyNeutralAcrossTheSweep) {
  run_warm_cold_parity(topo::TopologyFamily::kClos,
                       std::min(20, seeds_from_env(20)),
                       /*require_warm_win=*/true);
}

TEST(ChaosInvariants, WarmRepairIsSafetyNeutralOnFlatFabrics) {
  run_warm_cold_parity(topo::TopologyFamily::kFlat,
                       std::min(20, seeds_from_env(20)),
                       /*require_warm_win=*/false);
}

TEST(ChaosInvariants, WarmRepairIsSafetyNeutralOnReconfMeshes) {
  run_warm_cold_parity(topo::TopologyFamily::kReconf,
                       std::min(20, seeds_from_env(20)),
                       /*require_warm_win=*/false);
}

TEST(ChaosInvariants, CheckpointJsonRejectsMalformedDocuments) {
  pipeline::ReplanCheckpoint cp;
  cp.done = core::CountVector{1, 2};
  cp.phases_executed = 3;
  const json::Value good = cp.to_json();

  // Round trip is exact.
  const pipeline::ReplanCheckpoint back = pipeline::ReplanCheckpoint::from_json(
      json::parse(json::dump(good)));
  EXPECT_EQ(json::dump(back.to_json()), json::dump(good));

  EXPECT_THROW(pipeline::ReplanCheckpoint::from_json(json::Value(42)),
               std::exception);
  EXPECT_THROW(pipeline::ReplanCheckpoint::from_json(
                   json::parse(R"({"schema": "klotski.replan-checkpoint.v9"})")),
               std::exception);
  EXPECT_THROW(pipeline::ReplanCheckpoint::from_json(
                   json::parse(R"({"schema": "klotski.replan-checkpoint.v1"})")),
               std::exception);
}

}  // namespace
}  // namespace klotski
