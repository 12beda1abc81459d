#include "klotski/core/state_evaluator.h"

#include <stdexcept>

namespace klotski::core {

StateEvaluator::StateEvaluator(migration::MigrationTask& task,
                               constraints::CompositeChecker& checker,
                               bool use_cache)
    : task_(task), checker_(checker), use_cache_(use_cache) {
  target_.reserve(task.blocks.size());
  for (const auto& type_blocks : task.blocks) {
    target_.push_back(static_cast<std::int32_t>(type_blocks.size()));
  }

  // Per-element op lists: iterating (type asc, block asc, op asc) appends in
  // canonical replay order, so each list is sorted by position already.
  switch_ops_.resize(task.topo->num_switches());
  circuit_ops_.resize(task.topo->num_circuits());
  for (std::size_t t = 0; t < task.blocks.size(); ++t) {
    for (std::size_t b = 0; b < task.blocks[t].size(); ++b) {
      for (const migration::ElementOp& op : task.blocks[t][b].ops) {
        auto& list = op.kind == migration::ElementOp::Kind::kSwitch
                         ? switch_ops_[static_cast<std::size_t>(op.id)]
                         : circuit_ops_[static_cast<std::size_t>(op.id)];
        list.push_back(OpRef{static_cast<std::int32_t>(t),
                             static_cast<std::int32_t>(b), op.to});
      }
    }
  }

  // A block is overlap-free when no *other* block touches any of its
  // elements; it can then be applied/unapplied blindly. Shared elements go
  // through per-element resolution instead.
  overlap_free_.resize(task.blocks.size());
  for (std::size_t t = 0; t < task.blocks.size(); ++t) {
    overlap_free_[t].resize(task.blocks[t].size(), 1);
    for (std::size_t b = 0; b < task.blocks[t].size(); ++b) {
      for (const migration::ElementOp& op : task.blocks[t][b].ops) {
        const auto& list = op.kind == migration::ElementOp::Kind::kSwitch
                               ? switch_ops_[static_cast<std::size_t>(op.id)]
                               : circuit_ops_[static_cast<std::size_t>(op.id)];
        for (const OpRef& ref : list) {
          if (ref.type != static_cast<std::int32_t>(t) ||
              ref.block != static_cast<std::int32_t>(b)) {
            overlap_free_[t][b] = 0;
            break;
          }
        }
        if (!overlap_free_[t][b]) break;
      }
    }
  }

  switch_stamp_.assign(task.topo->num_switches(), 0);
  circuit_stamp_.assign(task.topo->num_circuits(), 0);
}

void StateEvaluator::validate_counts(const std::int32_t* counts) const {
  for (std::size_t t = 0; t < task_.blocks.size(); ++t) {
    if (counts[t] < 0 ||
        static_cast<std::size_t>(counts[t]) > task_.blocks[t].size()) {
      throw std::out_of_range("StateEvaluator: count exceeds block count");
    }
  }
}

void StateEvaluator::full_materialize(const std::int32_t* counts) {
  task_.reset_to_original();
  for (std::size_t t = 0; t < task_.blocks.size(); ++t) {
    const auto done = static_cast<std::size_t>(counts[t]);
    for (std::size_t i = 0; i < done; ++i) {
      task_.blocks[t][i].apply(*task_.topo);
    }
  }
}

void StateEvaluator::resolve_switch(topo::SwitchId id,
                                    const std::int32_t* counts) {
  const auto& list = switch_ops_[static_cast<std::size_t>(id)];
  for (std::size_t i = list.size(); i-- > 0;) {
    const OpRef& ref = list[i];
    if (ref.block < counts[static_cast<std::size_t>(ref.type)]) {
      task_.topo->set_switch_state(id, ref.to);
      return;
    }
  }
  task_.topo->set_switch_state(
      id, task_.original_state.switch_states[static_cast<std::size_t>(id)]);
}

void StateEvaluator::resolve_circuit(topo::CircuitId id,
                                     const std::int32_t* counts) {
  const auto& list = circuit_ops_[static_cast<std::size_t>(id)];
  for (std::size_t i = list.size(); i-- > 0;) {
    const OpRef& ref = list[i];
    if (ref.block < counts[static_cast<std::size_t>(ref.type)]) {
      task_.topo->set_circuit_state(id, ref.to);
      return;
    }
  }
  task_.topo->set_circuit_state(
      id, task_.original_state.circuit_states[static_cast<std::size_t>(id)]);
}

void StateEvaluator::delta_materialize(const std::int32_t* counts) {
  // Pass 1: toggle overlap-free blocks directly; collect the elements of
  // shared blocks for resolution. The resolution below reads only `counts`
  // and per-element op lists, so pass order does not matter.
  ++stamp_epoch_;
  dirty_switches_.clear();
  dirty_circuits_.clear();
  for (std::size_t t = 0; t < task_.blocks.size(); ++t) {
    const std::int32_t cur = current_[t];
    const std::int32_t req = counts[t];
    if (cur == req) continue;
    const bool applying = req > cur;
    const std::int32_t lo = applying ? cur : req;
    const std::int32_t hi = applying ? req : cur;
    for (std::int32_t b = lo; b < hi; ++b) {
      const migration::OperationBlock& block =
          task_.blocks[t][static_cast<std::size_t>(b)];
      if (overlap_free_[t][static_cast<std::size_t>(b)]) {
        if (applying) {
          block.apply(*task_.topo);
        } else {
          block.unapply(*task_.topo, task_.original_state);
        }
        continue;
      }
      for (const migration::ElementOp& op : block.ops) {
        if (op.kind == migration::ElementOp::Kind::kSwitch) {
          auto& stamp = switch_stamp_[static_cast<std::size_t>(op.id)];
          if (stamp != stamp_epoch_) {
            stamp = stamp_epoch_;
            dirty_switches_.push_back(op.id);
          }
        } else {
          auto& stamp = circuit_stamp_[static_cast<std::size_t>(op.id)];
          if (stamp != stamp_epoch_) {
            stamp = stamp_epoch_;
            dirty_circuits_.push_back(op.id);
          }
        }
      }
    }
  }

  // Pass 2: shared elements take the state of their last applied op in
  // canonical order — exactly what a full replay would leave behind.
  for (const topo::SwitchId id : dirty_switches_) resolve_switch(id, counts);
  for (const topo::CircuitId id : dirty_circuits_) resolve_circuit(id, counts);
}

void StateEvaluator::materialize(const CountVector& counts) {
  if (counts.size() != task_.blocks.size()) {
    throw std::invalid_argument("StateEvaluator: count vector arity mismatch");
  }
  materialize_span(counts.data());
}

void StateEvaluator::materialize_span(const std::int32_t* counts) {
  validate_counts(counts);
  const bool delta_ok = incremental_ && current_valid_ &&
                        task_.topo->state_version() == current_version_;
  if (delta_ok) {
    delta_materialize(counts);
    ++delta_applies_;
  } else {
    full_materialize(counts);
    ++full_replays_;
  }
  current_.assign(counts, counts + task_.blocks.size());
  current_valid_ = true;
  current_version_ = task_.topo->state_version();
}

bool StateEvaluator::feasible(const CountVector& counts) {
  if (counts.size() != task_.blocks.size()) {
    throw std::invalid_argument("StateEvaluator: count vector arity mismatch");
  }
  return feasible(counts.data(), StateHasher::hash(counts));
}

bool StateEvaluator::feasible(const std::int32_t* counts,
                              std::uint64_t hash) {
  ++evaluations_;
  const std::size_t n = target_.size();
  if (use_cache_) {
    if (const auto cached = cache_.lookup(counts, n, hash)) {
      ++cache_hits_;
      return *cached;
    }
  }
  materialize_span(counts);
  ++sat_checks_;
  const bool ok = checker_.check(*task_.topo).satisfied;
  if (use_cache_) cache_.store(counts, n, hash, ok);
  return ok;
}

}  // namespace klotski::core
