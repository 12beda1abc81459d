#include "klotski/core/search_scope.h"

#include <bit>
#include <unordered_map>

#include "klotski/migration/symmetry.h"
#include "klotski/obs/metrics.h"
#include "klotski/obs/trace.h"
#include "klotski/util/hash.h"

namespace klotski::core {

namespace {

/// Dense ids numbered by first occurrence, equal iff `same(i, j)`; `hash`
/// must agree with `same`. Exact: a hash collision costs a comparison,
/// never a merge.
template <typename Hash, typename Same>
std::vector<std::uint64_t> dense_kinds(std::size_t n, Hash hash, Same same) {
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) hashes[i] = hash(i);
  const auto hash_of = [&](std::uint32_t i) {
    return static_cast<std::size_t>(hashes[i]);
  };
  const auto equal = [&](std::uint32_t a, std::uint32_t b) {
    return same(a, b);
  };
  std::unordered_map<std::uint32_t, std::uint64_t, decltype(hash_of),
                     decltype(equal)>
      index(n * 2, hash_of, equal);
  std::vector<std::uint64_t> kinds(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t next = index.size();
    kinds[i] = index.try_emplace(static_cast<std::uint32_t>(i), next)
                   .first->second;
  }
  return kinds;
}

std::uint64_t hash_ops(std::uint64_t h,
                       const std::vector<StateEvaluator::OpRef>& ops) {
  for (const StateEvaluator::OpRef& op : ops) {
    h = util::hash_combine(h, static_cast<std::uint32_t>(op.type));
    h = util::hash_combine(h, static_cast<std::uint32_t>(op.block));
    h = util::hash_combine(h, static_cast<std::uint64_t>(op.to));
  }
  return h;
}

}  // namespace

SearchKinds search_kinds(const StateEvaluator& evaluator) {
  const migration::MigrationTask& task = evaluator.task();
  const topo::Topology& topo = *task.topo;
  const topo::TopologyState& original = task.original_state;

  // Demand membership, one entry per occurrence: 2d for a source of demand
  // d, 2d + 1 for a target. Demands in order, sources before targets, so
  // equal memberships give equal lists.
  std::vector<std::vector<std::uint32_t>> membership(topo.num_switches());
  for (std::size_t d = 0; d < task.demands.size(); ++d) {
    const auto entry = static_cast<std::uint32_t>(2 * d);
    for (const topo::SwitchId s : task.demands[d].sources) {
      if (s >= 0 && static_cast<std::size_t>(s) < membership.size()) {
        membership[static_cast<std::size_t>(s)].push_back(entry);
      }
    }
    for (const topo::SwitchId t : task.demands[d].targets) {
      if (t >= 0 && static_cast<std::size_t>(t) < membership.size()) {
        membership[static_cast<std::size_t>(t)].push_back(entry + 1);
      }
    }
  }

  SearchKinds kinds;
  kinds.switch_kind = dense_kinds(
      topo.num_switches(),
      [&](std::size_t i) {
        const topo::Switch& s = topo.switches()[i];
        std::uint64_t h = util::hash_combine(
            static_cast<std::uint64_t>(s.role),
            static_cast<std::uint64_t>(s.gen));
        h = util::hash_combine(h, static_cast<std::uint32_t>(s.max_ports));
        h = util::hash_combine(
            h, static_cast<std::uint64_t>(original.switch_states[i]));
        h = hash_ops(h, evaluator.switch_ops(static_cast<topo::SwitchId>(i)));
        return util::hash_combine(
            h, util::hash_span(membership[i].data(), membership[i].size()));
      },
      [&](std::uint32_t a, std::uint32_t b) {
        const topo::Switch& sa = topo.switches()[a];
        const topo::Switch& sb = topo.switches()[b];
        return sa.role == sb.role && sa.gen == sb.gen &&
               sa.max_ports == sb.max_ports &&
               original.switch_states[a] == original.switch_states[b] &&
               evaluator.switch_ops(static_cast<topo::SwitchId>(a)) ==
                   evaluator.switch_ops(static_cast<topo::SwitchId>(b)) &&
               membership[a] == membership[b];
      });
  kinds.circuit_kind = dense_kinds(
      topo.num_circuits(),
      [&](std::size_t i) {
        // + 0.0 folds -0.0 into 0.0, which compare equal.
        const std::uint64_t h = util::hash_combine(
            std::bit_cast<std::uint64_t>(topo.circuits()[i].capacity_tbps +
                                         0.0),
            static_cast<std::uint64_t>(original.circuit_states[i]));
        return hash_ops(h,
                        evaluator.circuit_ops(static_cast<topo::CircuitId>(i)));
      },
      [&](std::uint32_t a, std::uint32_t b) {
        return topo.circuits()[a].capacity_tbps ==
                   topo.circuits()[b].capacity_tbps &&
               original.circuit_states[a] == original.circuit_states[b] &&
               evaluator.circuit_ops(static_cast<topo::CircuitId>(a)) ==
                   evaluator.circuit_ops(static_cast<topo::CircuitId>(b));
      });
  return kinds;
}

SearchScope::SearchScope(const StateEvaluator& evaluator,
                         constraints::Checker& checker)
    : checker_(checker) {
  {
    obs::Span span("plan/quotient_build");
    obs::Registry& reg = obs::Registry::global();
    reg.counter("quotient.scopes").inc();
    const topo::Topology& topo = *evaluator.task().topo;
    const SearchKinds kinds = search_kinds(evaluator);
    const migration::SymmetryPartition partition =
        migration::partition_of(migration::refine_colors(
            topo, kinds.switch_kind, kinds.circuit_kind));
    if (partition.num_blocks() < topo.num_switches()) {
      quotient_ = traffic::Quotient::build(topo, partition.class_of,
                                           kinds.switch_kind,
                                           kinds.circuit_kind);
      if (quotient_) {
        reg.counter("quotient.classes")
            .inc(static_cast<long long>(quotient_->num_classes()));
        reg.counter("quotient.arcs")
            .inc(static_cast<long long>(quotient_->num_arcs()));
      } else {
        reg.counter("quotient.refused").inc();
      }
    }
  }
  checker_.open_scope(quotient());
}

SearchScope::~SearchScope() { checker_.close_scope(); }

}  // namespace klotski::core
