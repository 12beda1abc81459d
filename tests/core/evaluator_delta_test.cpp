// Delta materialization must be indistinguishable from a full replay: same
// element states after arbitrary count-vector moves (including reverts and
// multi-type jumps) and same feasibility verdicts through the full
// incremental stack (versioned topology, version-keyed ECMP liveness).
#include <gtest/gtest.h>

#include <algorithm>

#include "../test_helpers.h"
#include "klotski/core/state_evaluator.h"
#include "klotski/pipeline/edp.h"
#include "klotski/util/rng.h"

namespace klotski::core {
namespace {

using klotski::testing::Diamond;
using klotski::testing::small_dmag_case;
using klotski::testing::small_hgrid_case;
using klotski::testing::small_ssw_case;

CountVector random_step(const CountVector& current, const CountVector& target,
                        util::Rng& rng) {
  CountVector next = current;
  if (rng.chance(0.7)) {
    // Planner-like move: one type, one block up or down.
    const auto t = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(next.size()) - 1));
    const std::int32_t delta = rng.chance(0.5) ? 1 : -1;
    next[t] = std::clamp(next[t] + delta, 0, target[t]);
  } else {
    // Arbitrary jump, as after a cache-guided or batched evaluation.
    for (std::size_t t = 0; t < next.size(); ++t) {
      next[t] = static_cast<std::int32_t>(rng.uniform_int(0, target[t]));
    }
  }
  return next;
}

void expect_walk_matches_full_replay(migration::MigrationCase delta_case,
                                     migration::MigrationCase replay_case,
                                     std::uint64_t seed) {
  constraints::CompositeChecker no_checks;
  StateEvaluator delta_eval(delta_case.task, no_checks, false);
  StateEvaluator replay_eval(replay_case.task, no_checks, false);
  replay_eval.set_incremental(false);
  ASSERT_EQ(delta_eval.target(), replay_eval.target());

  util::Rng rng(seed);
  CountVector counts(delta_case.task.blocks.size(), 0);
  for (int step = 0; step < 200; ++step) {
    counts = random_step(counts, delta_eval.target(), rng);
    delta_eval.materialize(counts);
    replay_eval.materialize(counts);
    ASSERT_TRUE(topo::TopologyState::capture(*delta_case.task.topo) ==
                topo::TopologyState::capture(*replay_case.task.topo))
        << "divergence at step " << step;
  }
}

TEST(DeltaMaterialization, MatchesFullReplayHgrid) {
  expect_walk_matches_full_replay(small_hgrid_case(), small_hgrid_case(), 17);
}

TEST(DeltaMaterialization, MatchesFullReplaySsw) {
  expect_walk_matches_full_replay(small_ssw_case(), small_ssw_case(), 29);
}

TEST(DeltaMaterialization, MatchesFullReplayDmag) {
  expect_walk_matches_full_replay(small_dmag_case(), small_dmag_case(), 43);
}

// Hand-built overlap: two blocks of different types write the same circuit
// with different target states. Reverting the later block must expose the
// earlier block's state (canonical-order resolution), not the original.
TEST(DeltaMaterialization, OverlappingBlocksResolveInCanonicalOrder) {
  Diamond d;
  migration::MigrationTask task;
  task.topo = &d.topo;
  task.original_state = topo::TopologyState::capture(d.topo);

  migration::ActionType drain;
  drain.id = 0;
  drain.label = "drain";
  migration::ActionType remove;
  remove.id = 1;
  remove.label = "remove";
  task.action_types = {drain, remove};

  migration::OperationBlock b0;
  b0.id = 0;
  b0.type = 0;
  b0.ops.push_back(migration::ElementOp{migration::ElementOp::Kind::kCircuit,
                                        d.c_sm1, topo::ElementState::kDrained});
  migration::OperationBlock b1;
  b1.id = 1;
  b1.type = 1;
  b1.ops.push_back(migration::ElementOp{migration::ElementOp::Kind::kCircuit,
                                        d.c_sm1, topo::ElementState::kAbsent});
  task.blocks = {{b0}, {b1}};
  b0.apply(d.topo);
  b1.apply(d.topo);
  task.target_state = topo::TopologyState::capture(d.topo);
  task.reset_to_original();

  constraints::CompositeChecker no_checks;
  StateEvaluator evaluator(task, no_checks, false);
  const auto circuit_state = [&] { return d.topo.circuit(d.c_sm1).state; };

  evaluator.materialize({1, 1});
  EXPECT_EQ(circuit_state(), topo::ElementState::kAbsent);
  evaluator.materialize({1, 0});  // revert the shared later block
  EXPECT_EQ(circuit_state(), topo::ElementState::kDrained);
  evaluator.materialize({0, 1});  // type order, not application order, wins
  EXPECT_EQ(circuit_state(), topo::ElementState::kAbsent);
  evaluator.materialize({0, 0});
  EXPECT_EQ(circuit_state(), topo::ElementState::kActive);
  evaluator.materialize({1, 0});
  EXPECT_EQ(circuit_state(), topo::ElementState::kDrained);
}

// The full incremental stack (delta materialization + the router's
// version-keyed liveness words) must produce the same verdicts as a
// reference whose every incremental path is defeated via
// bump_state_version().
TEST(DeltaMaterialization, VerdictsMatchMemoDefeatingReference) {
  migration::MigrationCase inc_case = small_hgrid_case();
  migration::MigrationCase ref_case = small_hgrid_case();
  pipeline::CheckerConfig config;
  config.demand.max_utilization = 0.8;
  pipeline::CheckerBundle inc_bundle =
      pipeline::make_standard_checker(inc_case.task, config);
  pipeline::CheckerBundle ref_bundle =
      pipeline::make_standard_checker(ref_case.task, config);
  StateEvaluator inc_eval(inc_case.task, *inc_bundle.checker, false);
  StateEvaluator ref_eval(ref_case.task, *ref_bundle.checker, false);
  ref_eval.set_incremental(false);

  util::Rng rng(7);
  CountVector counts(inc_case.task.blocks.size(), 0);
  for (int step = 0; step < 120; ++step) {
    counts = random_step(counts, inc_eval.target(), rng);
    ref_case.task.topo->bump_state_version();  // kill every reference cache
    const bool inc = inc_eval.feasible(counts);
    const bool ref = ref_eval.feasible(counts);
    ASSERT_EQ(inc, ref) << "verdict divergence at step " << step;
  }
}

}  // namespace
}  // namespace klotski::core
