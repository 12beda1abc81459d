// Microbenchmarks for the planner's hot paths: ECMP assignment, full
// satisfiability checks, compact-state hashing, cache lookups, topology
// state capture/restore, and block application. These are the per-state
// costs in Theorems 1-2 (Theta(|S| + |C|) per check).
#include <benchmark/benchmark.h>

#include "klotski/core/sat_cache.h"
#include "klotski/migration/symmetry.h"
#include "klotski/topo/diff.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/pipeline/edp.h"
#include "klotski/pipeline/experiments.h"
#include "klotski/topo/presets.h"
#include "klotski/util/rng.h"

namespace {

using namespace klotski;

migration::MigrationCase& shared_case() {
  static migration::MigrationCase mig = pipeline::build_experiment(
      pipeline::ExperimentId::kC, topo::PresetScale::kReduced);
  return mig;
}

void BM_EcmpAssignOneDemand(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  traffic::EcmpRouter router(*mig.task.topo);
  traffic::LoadVector loads;
  const traffic::Demand& demand = mig.task.demands.front();
  for (auto _ : state) {
    loads.assign(mig.task.topo->num_circuits() * 2, 0);
    benchmark::DoNotOptimize(router.assign(demand, loads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(
                              mig.task.topo->num_circuits()));
}
BENCHMARK(BM_EcmpAssignOneDemand);

void BM_FullSatisfiabilityCheck(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  mig.task.reset_to_original();
  for (auto _ : state) {
    // The version bump forces the router's full liveness rebuild: this
    // measures a constraint evaluation from scratch.
    mig.task.topo->bump_state_version();
    benchmark::DoNotOptimize(bundle.checker->check(*mig.task.topo));
  }
}
BENCHMARK(BM_FullSatisfiabilityCheck);

void BM_EvaluatorFeasibleCacheMiss(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  core::StateEvaluator evaluator(mig.task, *bundle.checker,
                                 /*use_cache=*/false);
  // This measures the cost of one cold evaluation (Theta(|S| + |C|)), so
  // defeat the incremental fast path honestly: no delta materialization and
  // a version bump per iteration to force the router's full liveness
  // rebuild.
  evaluator.set_incremental(false);
  core::CountVector counts(mig.task.blocks.size(), 0);
  for (auto _ : state) {
    mig.task.topo->bump_state_version();
    benchmark::DoNotOptimize(evaluator.feasible(counts));
  }
}
BENCHMARK(BM_EvaluatorFeasibleCacheMiss);

// The incremental fast path on the planner's most common pattern: asking
// about a state the topology already holds. Delta materialization and the
// liveness refresh are no-ops, and every demand group routes over its kept
// DAG (no BFS; the what-if walk's per-trajectory check); the checkers
// still run.
void BM_EvaluatorFeasibleIncrementalRepeat(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  core::StateEvaluator evaluator(mig.task, *bundle.checker,
                                 /*use_cache=*/false);
  core::CountVector counts(mig.task.blocks.size(), 0);
  evaluator.feasible(counts);  // settle onto the state
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.feasible(counts));
  }
}
BENCHMARK(BM_EvaluatorFeasibleIncrementalRepeat);

// A four-state ring of neighboring count vectors (each step flips one
// block), the second most common planner pattern. Exercises delta
// materialization plus the router's liveness rebuild after each version
// change.
void ring_walk_bench(benchmark::State& state, bool incremental) {
  migration::MigrationCase& mig = shared_case();
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  core::StateEvaluator evaluator(mig.task, *bundle.checker,
                                 /*use_cache=*/false);
  evaluator.set_incremental(incremental);
  std::vector<core::CountVector> ring;
  core::CountVector base(mig.task.blocks.size(), 0);
  ring.push_back(base);
  base[0] = 1;
  ring.push_back(base);
  if (base.size() > 1) {
    base[1] = 1;
    ring.push_back(base);
    base[0] = 0;
    ring.push_back(base);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    if (!incremental) mig.task.topo->bump_state_version();
    benchmark::DoNotOptimize(evaluator.feasible(ring[i]));
    i = (i + 1) % ring.size();
  }
  mig.task.reset_to_original();
}

void BM_EvaluatorFeasibleIncrementalWalk(benchmark::State& state) {
  ring_walk_bench(state, /*incremental=*/true);
}
BENCHMARK(BM_EvaluatorFeasibleIncrementalWalk);

void BM_EvaluatorFeasibleFullReplayWalk(benchmark::State& state) {
  ring_walk_bench(state, /*incremental=*/false);
}
BENCHMARK(BM_EvaluatorFeasibleFullReplayWalk);

void BM_EvaluatorFeasibleCacheHit(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  pipeline::CheckerBundle bundle =
      pipeline::make_standard_checker(mig.task, {});
  core::StateEvaluator evaluator(mig.task, *bundle.checker,
                                 /*use_cache=*/true);
  core::CountVector counts(mig.task.blocks.size(), 0);
  evaluator.feasible(counts);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.feasible(counts));
  }
}
BENCHMARK(BM_EvaluatorFeasibleCacheHit);

void BM_CompactStateHash(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<core::CountVector> keys;
  for (int i = 0; i < 1024; ++i) {
    core::CountVector v(4);
    for (auto& x : v) x = static_cast<std::int32_t>(rng.uniform_int(0, 200));
    keys.push_back(std::move(v));
  }
  core::CountVectorHash hash;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash(keys[i++ & 1023]));
  }
}
BENCHMARK(BM_CompactStateHash);

void BM_SatCacheLookup(benchmark::State& state) {
  util::Rng rng(11);
  core::SatCache cache;
  std::vector<core::CountVector> keys;
  for (int i = 0; i < 4096; ++i) {
    core::CountVector v(4);
    for (auto& x : v) x = static_cast<std::int32_t>(rng.uniform_int(0, 200));
    cache.store(v, (i & 1) == 0);
    keys.push_back(std::move(v));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(keys[i++ & 4095]));
  }
}
BENCHMARK(BM_SatCacheLookup);

void BM_TopologyStateRestore(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  const topo::TopologyState snapshot =
      topo::TopologyState::capture(*mig.task.topo);
  for (auto _ : state) {
    snapshot.restore(*mig.task.topo);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TopologyStateRestore);

void BM_BlockApply(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  const migration::OperationBlock& block = mig.task.blocks[0][0];
  for (auto _ : state) {
    block.apply(*mig.task.topo);
    benchmark::ClobberMemory();
  }
  mig.task.reset_to_original();
}
BENCHMARK(BM_BlockApply);


void BM_SymmetryComputation(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        migration::compute_symmetry(*mig.task.topo).num_blocks());
  }
}
BENCHMARK(BM_SymmetryComputation);

void BM_StateDiff(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topo::diff_states(*mig.task.topo, mig.task.original_state,
                          mig.task.target_state)
            .capacity_delta_tbps);
  }
}
BENCHMARK(BM_StateDiff);

void BM_AssignAllDemands(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  traffic::EcmpRouter router(*mig.task.topo);
  traffic::LoadVector loads;
  for (auto _ : state) {
    // Defeat the liveness-refresh version gate so every iteration also pays
    // the full liveness rebuild.
    mig.task.topo->bump_state_version();
    loads.assign(mig.task.topo->num_circuits() * 2, 0);
    benchmark::DoNotOptimize(router.assign_all(mig.task.demands, loads));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<long long>(mig.task.demands.size()));
}
BENCHMARK(BM_AssignAllDemands);

// Finds a traffic-carrying circuit whose drain keeps every demand routable,
// so every step of a drain/undrain walk is a full check (an unroutable set
// would stop at its first failing group). Returns kInvalidCircuit when no
// such circuit exists.
topo::CircuitId find_flippable_circuit(topo::Topology& topo,
                                       traffic::EcmpRouter& router,
                                       const traffic::DemandSet& demands) {
  traffic::LoadVector loads;
  for (const topo::Circuit& c : topo.circuits()) {
    if (!topo.circuit_carries_traffic(c.id)) continue;
    topo.set_circuit_state(c.id, topo::ElementState::kDrained);
    loads.assign(topo.num_circuits() * 2, 0);
    const bool ok = router.assign_all(demands, loads);
    topo.set_circuit_state(c.id, topo::ElementState::kActive);
    loads.assign(topo.num_circuits() * 2, 0);
    router.assign_all(demands, loads);
    if (ok) return c.id;
  }
  return topo::kInvalidCircuit;
}

// The planner's walk: every iteration flips one circuit and runs one
// assign_all, so it times a full check after one flip — one liveness
// rebuild, then every demand group routed.
void BM_AssignAllDirtyGroups(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  topo::Topology topo = *mig.task.topo;  // private copy: benches share the case
  traffic::EcmpRouter router(topo);
  traffic::LoadVector loads;
  loads.assign(topo.num_circuits() * 2, 0);
  router.assign_all(mig.task.demands, loads);

  const topo::CircuitId flip =
      find_flippable_circuit(topo, router, mig.task.demands);
  if (flip == topo::kInvalidCircuit) {
    state.SkipWithError("no drainable circuit keeps all demands routable");
    return;
  }
  bool drained = false;
  for (auto _ : state) {
    drained = !drained;
    topo.set_circuit_state(flip, drained ? topo::ElementState::kDrained
                                         : topo::ElementState::kActive);
    loads.assign(topo.num_circuits() * 2, 0);
    benchmark::DoNotOptimize(router.assign_all(mig.task.demands, loads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(mig.task.demands.size()));
}
BENCHMARK(BM_AssignAllDirtyGroups);

// Same walk keyed on a switch flip: a full check after one switch drain or
// undrain, which takes the switch's incident circuits out of the DAG.
void BM_AssignAllSwitchDirtyWalk(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  topo::Topology topo = *mig.task.topo;
  traffic::EcmpRouter router(topo);
  traffic::LoadVector loads;
  loads.assign(topo.num_circuits() * 2, 0);
  router.assign_all(mig.task.demands, loads);

  // A switch whose drain keeps every demand routable (same search as the
  // circuit walk above).
  topo::SwitchId flip = topo::kInvalidSwitch;
  for (const topo::Switch& s : topo.switches()) {
    if (!s.active()) continue;
    topo.set_switch_state(s.id, topo::ElementState::kDrained);
    loads.assign(topo.num_circuits() * 2, 0);
    const bool ok = router.assign_all(mig.task.demands, loads);
    topo.set_switch_state(s.id, topo::ElementState::kActive);
    loads.assign(topo.num_circuits() * 2, 0);
    router.assign_all(mig.task.demands, loads);
    if (ok) {
      flip = s.id;
      break;
    }
  }
  if (flip == topo::kInvalidSwitch) {
    state.SkipWithError("no drainable switch keeps all demands routable");
    return;
  }
  bool drained = false;
  for (auto _ : state) {
    drained = !drained;
    topo.set_switch_state(flip, drained ? topo::ElementState::kDrained
                                        : topo::ElementState::kActive);
    loads.assign(topo.num_circuits() * 2, 0);
    benchmark::DoNotOptimize(router.assign_all(mig.task.demands, loads));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(mig.task.demands.size()));
}
BENCHMARK(BM_AssignAllSwitchDirtyWalk);

// Full-circuit utilization scan over an assign_all load vector, the scan
// the DemandChecker's fabric check runs after routing.
void BM_WorstCircuitScan(benchmark::State& state) {
  migration::MigrationCase& mig = shared_case();
  traffic::EcmpRouter router(*mig.task.topo);
  traffic::LoadVector loads;
  loads.assign(mig.task.topo->num_circuits() * 2, 0);
  router.assign_all(mig.task.demands, loads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(traffic::max_utilization(*mig.task.topo, loads));
  }
}
BENCHMARK(BM_WorstCircuitScan);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The system benchmark library reports its own build type (often "debug"
  // for distro packages); record how *this* binary was compiled so
  // bench/bench_to_json.sh can refuse to ship debug numbers.
  benchmark::AddCustomContext("klotski_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
