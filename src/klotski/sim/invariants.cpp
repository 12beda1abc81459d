#include "klotski/sim/invariants.h"

#include <cstdio>

#include "klotski/json/json.h"

namespace klotski::sim {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Exact decimal form (shortest round-trip, via the JSON writer's to_chars
/// path) so trajectory lines are byte-comparable across runs.
std::string exact(double v) { return json::dump(json::Value(v)); }

}  // namespace

InvariantChecker::InvariantChecker(migration::MigrationTask& task,
                                   const pipeline::CheckerConfig& config,
                                   const core::PlannerOptions& planner_options)
    : task_(&task),
      config_(config),
      cost_(planner_options.alpha, planner_options.type_weights),
      persistent_router_(*task.topo, config.routing),
      prev_done_(task.blocks.size(), 0) {}

void InvariantChecker::seed_from(const pipeline::ReplanCheckpoint& checkpoint) {
  prev_done_ = checkpoint.done;
  prev_phases_ = checkpoint.phases_executed;
  prev_step_ = checkpoint.step - 1;
  last_type_ = checkpoint.last_type;
  expected_cost_ = checkpoint.executed_cost;
}

void InvariantChecker::violation(const pipeline::PhaseObservation& observation,
                                 std::string what) {
  if (violations_.size() >= kMaxViolations) return;
  violations_.push_back(InvariantViolation{observation.phases_executed,
                                           observation.step, std::move(what)});
}

void InvariantChecker::observe(const pipeline::PhaseObservation& observation) {
  topo::Topology& topo = observation.topo;

  // 3. Monotone progress.
  if (observation.phases_executed != prev_phases_ + 1) {
    violation(observation,
              "phase counter jumped from " + std::to_string(prev_phases_) +
                  " to " + std::to_string(observation.phases_executed));
  }
  if (observation.step < prev_step_) {
    violation(observation, "step went backwards: " +
                               std::to_string(prev_step_) + " -> " +
                               std::to_string(observation.step));
  }
  const auto type = static_cast<std::size_t>(observation.type);
  for (std::size_t t = 0; t < observation.done.size(); ++t) {
    const std::int32_t expected =
        prev_done_[t] + (t == type ? observation.blocks : 0);
    if (observation.done[t] != expected) {
      violation(observation,
                "done[" + std::to_string(t) + "] is " +
                    std::to_string(observation.done[t]) + ", expected " +
                    std::to_string(expected));
      break;
    }
  }

  // 4. Cost accounting: re-accumulate in the driver's order (one transition
  // per block) so the comparison is bit-exact.
  for (int b = 0; b < observation.blocks; ++b) {
    expected_cost_ += cost_.transition_cost(last_type_, observation.type);
    last_type_ = observation.type;
  }
  if (observation.executed_cost != expected_cost_) {
    violation(observation, "executed_cost " + exact(observation.executed_cost) +
                               " != re-accumulated " + exact(expected_cost_));
  }

  // 1. Safety of the executed state under ground-truth demands.
  {
    migration::MigrationTask probe = *task_;  // shallow: same topology
    probe.demands = observation.demands;
    probe.original_state = topo::TopologyState::capture(topo);
    pipeline::CheckerBundle bundle =
        pipeline::make_standard_checker(probe, config_);
    const constraints::Verdict verdict = bundle.checker->check(topo);
    if (!verdict.satisfied) {
      violation(observation,
                "executed state violates constraints: " + verdict.violation);
    }
  }

  // 2a. A long-lived router equals a fresh one: the trajectory-long router
  // (liveness keyed on the state version) must agree bit-for-bit with a
  // fresh router, so a state write that skipped the version shows here.
  {
    traffic::LoadVector incremental;
    traffic::LoadVector fresh;
    std::string failed_incremental;
    std::string failed_fresh;
    const bool ok_incremental = persistent_router_.assign_all(
        observation.demands, incremental, &failed_incremental);
    traffic::EcmpRouter fresh_router(topo, config_.routing);
    const bool ok_fresh =
        fresh_router.assign_all(observation.demands, fresh, &failed_fresh);
    if (ok_incremental != ok_fresh || failed_incremental != failed_fresh) {
      violation(observation,
                "incremental router verdict diverged from fresh router");
    } else if (ok_incremental && incremental != fresh) {
      violation(observation,
                "incremental router loads diverged from fresh router");
    }
  }

  // 2b. Topology::liveness_words matches the per-circuit predicate.
  {
    std::vector<std::uint64_t> words;
    topo.liveness_words(words);
    for (std::size_t c = 0; c < topo.num_circuits(); ++c) {
      const bool packed = (words[c >> 6] >> (c & 63)) & 1;
      if (packed !=
          topo.circuit_carries_traffic(static_cast<topo::CircuitId>(c))) {
        violation(observation, "liveness word mismatch at circuit " +
                                   std::to_string(c));
        break;
      }
    }
  }

  trajectory_.push_back(
      "phase " + std::to_string(observation.phases_executed) + " type=" +
      std::to_string(observation.type) + " blocks=" +
      std::to_string(observation.blocks) + " step=" +
      std::to_string(observation.step) + " sig=" +
      hex64(topo::TopologyState::capture(topo).signature()) + " cost=" +
      exact(observation.executed_cost));

  prev_done_ = observation.done;
  prev_phases_ = observation.phases_executed;
  prev_step_ = observation.step;
}

void InvariantChecker::finish(const pipeline::ReplanResult& result) {
  if (result.phases_executed != prev_phases_) {
    violations_.push_back(InvariantViolation{
        prev_phases_, prev_step_,
        "result.phases_executed " + std::to_string(result.phases_executed) +
            " != observed " + std::to_string(prev_phases_)});
  }
  if (result.executed_cost != expected_cost_) {
    violations_.push_back(InvariantViolation{
        prev_phases_, prev_step_,
        "result.executed_cost " + exact(result.executed_cost) +
            " != observed " + exact(expected_cost_)});
  }
  if (result.warm_attempts != result.warm_wins + result.fallback_full) {
    violations_.push_back(InvariantViolation{
        prev_phases_, prev_step_,
        "warm accounting broken: attempts " +
            std::to_string(result.warm_attempts) + " != wins " +
            std::to_string(result.warm_wins) + " + full fallbacks " +
            std::to_string(result.fallback_full)});
  }
}

}  // namespace klotski::sim
