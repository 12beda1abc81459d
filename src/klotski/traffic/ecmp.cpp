#include "klotski/traffic/ecmp.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace klotski::traffic {

using topo::CircuitId;
using topo::SwitchId;
using topo::Topology;

namespace {

/// loads[slot] += value. The caller's vector may already hold other calls'
/// loads, so the sum is checked here rather than by demand_loads.
void add_load(LoadVector& loads, std::uint32_t slot, Load value) {
  if (__builtin_add_overflow(loads[slot], value, &loads[slot])) {
    throw std::invalid_argument(
        "summed loads exceed the fixed-point range of 32768 Tbps");
  }
}

/// Range-checks every circuit's capacity, throwing through capacity_weight,
/// which names the circuit. Both split modes need it: WCMP weighs next hops
/// by capacity, and every utilization divides by it — a NaN capacity would
/// make the utilization NaN, which never exceeds theta, so the check would
/// pass.
void check_capacities(const Topology& topo) {
  for (const topo::Circuit& c : topo.circuits()) {
    if (!capacity_in_range(c.capacity_tbps)) {
      capacity_weight(c.capacity_tbps, static_cast<std::uint32_t>(c.id));
    }
  }
}

}  // namespace

EcmpRouter::EcmpRouter(const topo::Topology& topo, SplitMode mode)
    : topo_(topo),
      mode_(mode),
      num_switches_(topo.num_switches()),
      m_alive_refreshes_(
          obs::Registry::global().counter("router.alive_refreshes")),
      m_group_recomputes_(
          obs::Registry::global().counter("router.group_recomputes")) {
  check_capacities(topo);
  offsets_.assign(num_switches_ + 1, 0);
  for (const topo::Circuit& c : topo.circuits()) {
    ++offsets_[static_cast<std::size_t>(c.a) + 1];
    ++offsets_[static_cast<std::size_t>(c.b) + 1];
  }
  for (std::size_t i = 1; i <= num_switches_; ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  arcs_.resize(offsets_[num_switches_]);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const topo::Circuit& c : topo.circuits()) {
    // Direction slot convention: 2c is a -> b, 2c + 1 is b -> a.
    const auto slot = static_cast<std::uint32_t>(c.id) * 2;
    arcs_[cursor[static_cast<std::size_t>(c.a)]++] = Arc{c.b, slot};
    arcs_[cursor[static_cast<std::size_t>(c.b)]++] = Arc{c.a, slot + 1};
  }
}

void EcmpRouter::refresh_alive() {
  const std::uint64_t v = topo_.state_version();
  if (alive_valid_ && v == alive_version_) return;
  m_alive_refreshes_.inc();
  topo_.liveness_words(alive_words_);
  // Capacity edits follow the same out-of-band contract as state edits
  // (bump_state_version), so they are range-checked here.
  check_capacities(topo_);
  alive_valid_ = true;
  alive_version_ = v;
}

bool EcmpRouter::bfs_from_targets(const Demand& demand) {
  dist_.assign(num_switches_, -1);
  visit_order_.clear();
  for (const SwitchId t : demand.targets) {
    if (!topo_.sw(t).active()) continue;
    const auto ti = static_cast<std::size_t>(t);
    if (dist_[ti] < 0) {
      dist_[ti] = 0;
      volume_[ti] = 0;
      visit_order_.push_back(t);
    }
  }
  if (visit_order_.empty()) return false;

  // Standard BFS; visit_order_ doubles as the queue (ascending distance).
  for (std::size_t head = 0; head < visit_order_.size(); ++head) {
    const SwitchId u = visit_order_[head];
    const std::int32_t du = dist_[static_cast<std::size_t>(u)];
    const std::uint32_t end = offsets_[static_cast<std::size_t>(u) + 1];
    for (std::uint32_t i = offsets_[static_cast<std::size_t>(u)]; i < end;
         ++i) {
      const Arc& arc = arcs_[i];
      if (!alive(arc)) continue;
      const auto ni = static_cast<std::size_t>(arc.neighbor);
      if (dist_[ni] < 0) {
        dist_[ni] = du + 1;
        volume_[ni] = 0;
        visit_order_.push_back(arc.neighbor);
      }
    }
  }
  return true;
}

bool EcmpRouter::inject_sources(const Demand& demand, Load volume) {
  // Count active sources and check reachability first (Eq. 4).
  std::size_t active_sources = 0;
  for (const SwitchId src : demand.sources) {
    if (!topo_.sw(src).active()) continue;
    if (dist_[static_cast<std::size_t>(src)] < 0) return false;
    ++active_sources;
  }
  if (active_sources == 0) return true;  // vacuously satisfied, no load

  const Load per_source = ceil_div(volume, active_sources);
  for (const SwitchId src : demand.sources) {
    if (topo_.sw(src).active()) {
      volume_[static_cast<std::size_t>(src)] += per_source;
    }
  }
  return true;
}

void EcmpRouter::propagate(LoadVector& loads) {
  // Propagate along the DAG in decreasing distance: visit_order_ is in
  // ascending distance, so walk it backwards. A switch's volume splits over
  // circuits toward neighbors one step closer to a target.
  for (std::size_t idx = visit_order_.size(); idx-- > 0;) {
    const SwitchId u = visit_order_[idx];
    const Load vol = volume_[static_cast<std::size_t>(u)];
    if (vol == 0) continue;
    const std::int32_t du = dist_[static_cast<std::size_t>(u)];
    if (du == 0) continue;  // absorbed at a target

    // Single scan: collect the equal-cost next hops. An alive arc from a
    // reached switch always has a reached neighbor (BFS relaxed it under
    // the same liveness words).
    next_hops_.clear();
    const std::uint32_t end = offsets_[static_cast<std::size_t>(u) + 1];
    for (std::uint32_t i = offsets_[static_cast<std::size_t>(u)]; i < end;
         ++i) {
      const Arc& arc = arcs_[i];
      if (!alive(arc)) continue;
      const std::int32_t dn = dist_[static_cast<std::size_t>(arc.neighbor)];
      assert(dn >= 0 && "an alive arc's neighbor was reached");
      if (dn != du - 1) continue;
      next_hops_.push_back(i);
    }
    assert(!next_hops_.empty() && "reached switch must have a next hop");

    const auto weight = [&](const Arc& arc) {
      const std::uint32_t c = arc.fwd_slot >> 1;
      return capacity_weight(
          topo_.circuit(static_cast<CircuitId>(c)).capacity_tbps, c);
    };
    WideLoad total_weight = 0;
    if (mode_ != SplitMode::kEqualSplit) {
      for (const std::uint32_t i : next_hops_) total_weight += weight(arcs_[i]);
    }
    const Load equal_share = ceil_div(vol, next_hops_.size());
    for (const std::uint32_t i : next_hops_) {
      const Arc& arc = arcs_[i];
      const Load share = mode_ == SplitMode::kEqualSplit
                             ? equal_share
                             : weighted_share(vol, weight(arc), total_weight);
      add_load(loads, arc.fwd_slot, share);
      volume_[static_cast<std::size_t>(arc.neighbor)] += share;
    }
  }
}

bool EcmpRouter::assign(const Demand& demand, LoadVector& loads) {
  loads.resize(topo_.num_circuits() * 2, 0);
  demand_loads({&demand, 1}, 1, arcs_.size(), volumes_);
  refresh_alive();
  volume_.resize(num_switches_);
  if (!bfs_from_targets(demand)) return false;
  if (!inject_sources(demand, volumes_[0])) return false;
  propagate(loads);
  return true;
}

namespace {

// Hash grouping key: the demand's target-set vector, compared by value.
struct TargetsHash {
  std::size_t operator()(const std::vector<SwitchId>* key) const {
    std::size_t h = 1469598103934665603ull;  // FNV-1a
    for (const SwitchId s : *key) {
      h ^= static_cast<std::size_t>(s);
      h *= 1099511628211ull;
    }
    return h;
  }
};
struct TargetsEq {
  bool operator()(const std::vector<SwitchId>* a,
                  const std::vector<SwitchId>* b) const {
    return *a == *b;
  }
};

}  // namespace

std::vector<EcmpRouter::Group> EcmpRouter::group_by_targets(
    const DemandSet& demands) {
  std::vector<Group> groups;
  std::unordered_map<const std::vector<SwitchId>*, std::size_t, TargetsHash,
                     TargetsEq>
      index;
  index.reserve(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto [it, inserted] =
        index.try_emplace(&demands[i].targets, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(static_cast<std::uint32_t>(i));
  }
  return groups;
}

bool EcmpRouter::assign_all(const DemandSet& demands, LoadVector& loads,
                            std::string* failed_demand) {
  loads.resize(topo_.num_circuits() * 2, 0);
  const std::vector<Group> groups = group_by_targets(demands);
  demand_loads(demands, groups.size(), arcs_.size(), volumes_);
  refresh_alive();
  volume_.resize(num_switches_);
  const auto fail = [&](const Demand& demand) {
    if (failed_demand != nullptr) *failed_demand = demand.name;
    return false;
  };

  // All demands of a group share one target set, hence one BFS and one
  // merged propagation of their summed volumes.
  for (const Group& group : groups) {
    ++group_recomputes_;
    m_group_recomputes_.inc();
    const Demand& representative = demands[group.front()];
    if (!bfs_from_targets(representative)) return fail(representative);
    for (const std::uint32_t i : group) {
      if (!inject_sources(demands[i], volumes_[i])) return fail(demands[i]);
    }
    propagate(loads);
  }
  return true;
}

double max_utilization(const topo::Topology& topo, const LoadVector& loads) {
  return worst_circuit(topo, loads).utilization;
}

WorstCircuit worst_circuit(const topo::Topology& topo,
                           const LoadVector& loads) {
  WorstCircuit worst;
  const std::size_t n = std::min(loads.size() / 2, topo.num_circuits());
  for (std::size_t c = 0; c < n; ++c) {
    const Load load = std::max(loads[c * 2], loads[c * 2 + 1]);
    if (load <= 0) continue;
    const double util = utilization(
        load, topo.circuit(static_cast<CircuitId>(c)).capacity_tbps, 1.0);
    if (util > worst.utilization) {
      worst.utilization = util;
      worst.circuit = static_cast<CircuitId>(c);
    }
  }
  return worst;
}

}  // namespace klotski::traffic
