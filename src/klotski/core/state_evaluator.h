// Materializes compact states onto the task topology and checks the safety
// constraints, with the §4.2 satisfiability cache in front.
//
// Evaluating V = (v_i) from scratch costs O(|S| + |C| + applied ops): restore
// the original element states, apply the first v_i blocks of every type i,
// run the constraint checkers. That full replay is only the fallback. The
// evaluator tracks the count vector it last materialized together with the
// topology's state version; when both still match, it flips only the ops of
// the blocks that differ between the current and requested vectors (delta
// materialization). Overlap-free blocks use OperationBlock::apply/unapply
// directly; elements shared between blocks are resolved from precomputed
// per-element op lists so the result is bit-identical to a full replay in
// canonical order, whatever the overlap pattern.
//
// Delta materialization writes through the versioned setters, so the
// topology's state version moves exactly when an element state did, and
// the ECMP router rebuilds its liveness words only then.
#pragma once

#include <cstdint>

#include "klotski/constraints/composite.h"
#include "klotski/core/sat_cache.h"
#include "klotski/migration/task.h"

namespace klotski::core {

class StateEvaluator {
 public:
  /// `use_cache = false` gives the "Klotski w/o ESC" ablation.
  StateEvaluator(migration::MigrationTask& task,
                 constraints::CompositeChecker& checker, bool use_cache);

  /// True iff the intermediate topology after `counts` satisfies all
  /// constraints. Leaves the topology in an unspecified element state;
  /// call materialize() or task.reset_to_original() when a specific state
  /// is needed afterwards.
  bool feasible(const CountVector& counts);

  /// Span form for planners that carry the count hash incrementally
  /// (StateHasher::update along search edges): the cache probe reuses
  /// `hash` instead of rehashing V. `counts` must have target().size()
  /// entries and `hash` must equal StateHasher::hash over them.
  bool feasible(const std::int32_t* counts, std::uint64_t hash);

  /// Applies `counts` onto the topology and leaves it there (inspection /
  /// audit / phase export).
  void materialize(const CountVector& counts);

  /// Target compact state (all blocks of every type done).
  const CountVector& target() const { return target_; }

  /// Disables the delta fast path (every materialization replays from the
  /// original state). For ablations and the delta-vs-replay benchmarks.
  void set_incremental(bool on) { incremental_ = on; }
  bool incremental() const { return incremental_; }

  /// Drops every cached verdict and releases the table's memory (the
  /// budgeted A* planner calls this when it compacts).
  void clear_cache() { cache_.clear(); }
  std::size_t cache_bytes() const { return cache_.approx_memory_bytes(); }

  long long sat_checks() const { return sat_checks_; }
  long long cache_hits() const { return cache_hits_; }
  /// Total feasibility queries; always sat_checks() + cache_hits().
  long long evaluations() const { return evaluations_; }
  long long delta_applies() const { return delta_applies_; }
  long long full_replays() const { return full_replays_; }
  const SatCache& cache() const { return cache_; }

  /// One op touching an element, keyed by its position in the canonical
  /// replay order (type ascending, block index ascending). An element's
  /// materialized state is the `to` of the last applied op in this order,
  /// or the original state when none is applied.
  struct OpRef {
    std::int32_t type;
    std::int32_t block;
    topo::ElementState to;

    friend bool operator==(const OpRef&, const OpRef&) = default;
  };

  const migration::MigrationTask& task() const { return task_; }
  /// The ops touching one element, in canonical replay order (the seeds of
  /// a search's quotient, core/search_scope.h).
  const std::vector<OpRef>& switch_ops(topo::SwitchId id) const {
    return switch_ops_[static_cast<std::size_t>(id)];
  }
  const std::vector<OpRef>& circuit_ops(topo::CircuitId id) const {
    return circuit_ops_[static_cast<std::size_t>(id)];
  }

 private:
  void validate_counts(const std::int32_t* counts) const;
  void materialize_span(const std::int32_t* counts);
  void full_materialize(const std::int32_t* counts);
  void delta_materialize(const std::int32_t* counts);
  void resolve_switch(topo::SwitchId id, const std::int32_t* counts);
  void resolve_circuit(topo::CircuitId id, const std::int32_t* counts);

  migration::MigrationTask& task_;
  constraints::CompositeChecker& checker_;
  bool use_cache_;
  bool incremental_ = true;
  SatCache cache_;
  CountVector target_;
  long long sat_checks_ = 0;
  long long cache_hits_ = 0;
  long long evaluations_ = 0;
  long long delta_applies_ = 0;
  long long full_replays_ = 0;

  // Per-element op lists in canonical order (built once; empty for elements
  // no block touches) and the per-block overlap-free flags.
  std::vector<std::vector<OpRef>> switch_ops_;
  std::vector<std::vector<OpRef>> circuit_ops_;
  std::vector<std::vector<std::uint8_t>> overlap_free_;

  // The materialized state the topology currently holds, valid only while
  // the topology's version still matches (external mutations force a full
  // replay on the next materialization).
  CountVector current_;
  bool current_valid_ = false;
  std::uint64_t current_version_ = 0;

  // Scratch for dirty-element dedup during delta transitions.
  std::vector<std::uint32_t> switch_stamp_;
  std::vector<std::uint32_t> circuit_stamp_;
  std::uint32_t stamp_epoch_ = 0;
  std::vector<topo::SwitchId> dirty_switches_;
  std::vector<topo::CircuitId> dirty_circuits_;
};

}  // namespace klotski::core
