#include "klotski/traffic/ecmp.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace klotski::traffic {

using topo::CircuitId;
using topo::SwitchId;
using topo::Topology;

namespace {

constexpr std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

/// loads[slot] += value. The caller's vector may already hold other calls'
/// loads, so the sum is checked here rather than by demand_loads.
void add_load(LoadVector& loads, std::uint32_t slot, Load value) {
  if (__builtin_add_overflow(loads[slot], value, &loads[slot])) {
    throw std::invalid_argument(
        "summed loads exceed the fixed-point range of 32768 Tbps");
  }
}

}  // namespace

EcmpRouter::EcmpRouter(const topo::Topology& topo, SplitMode mode)
    : topo_(topo),
      mode_(mode),
      num_switches_(topo.num_switches()),
      m_alive_journal_replays_(
          obs::Registry::global().counter("router.alive_journal_replays")),
      m_alive_full_rebuilds_(
          obs::Registry::global().counter("router.alive_full_rebuilds")),
      m_group_recomputes_(
          obs::Registry::global().counter("router.group_recomputes")) {
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
    const auto cid = static_cast<std::size_t>(c.id);
    const auto word = static_cast<std::uint32_t>(cid >> 6);
    const std::uint64_t mask = std::uint64_t{1} << (cid & 63);
    // Direction slot convention: 2c is a -> b, 2c + 1 is b -> a.
    const std::uint64_t weight =
        capacity_weight(c.capacity_tbps, static_cast<std::uint32_t>(cid));
    arcs_[cursor[static_cast<std::size_t>(c.a)]++] =
        Arc{c.b, static_cast<std::uint32_t>(cid * 2), word, 0, mask, weight};
    arcs_[cursor[static_cast<std::size_t>(c.b)]++] =
        Arc{c.a, static_cast<std::uint32_t>(cid * 2 + 1), word, 0, mask,
            weight};
  }

  alive_words_.assign(word_count(topo.num_circuits()), 0);
  touched_words_.assign(alive_words_.size(), 0);
}

void EcmpRouter::Scratch::init(std::size_t num_switches) {
  dist.assign(num_switches, -1);
  stamp.assign(num_switches, 0);
  epoch = 0;
  visit_order.clear();
  visit_order.reserve(num_switches);
  volume.assign(num_switches, 0);
}

void EcmpRouter::Scratch::begin_bfs() {
  visit_order.clear();
  if (++epoch == 0) {
    // uint32 wrap (once per ~4e9 BFS runs): stale stamps could collide with
    // the recycled epoch, so clear them and restart at 1.
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }
}

void EcmpRouter::refresh_alive() {
  const std::uint64_t v = topo_.state_version();
  const std::size_t words = word_count(topo_.num_circuits());
  if (alive_valid_ && v == alive_version_ && alive_words_.size() == words) {
    return;
  }
  changes_scratch_.clear();
  if (alive_valid_ && alive_words_.size() == words &&
      topo_.changes_since(alive_version_, changes_scratch_)) {
    m_alive_journal_replays_.inc();
    // Replay only the journaled changes: a circuit flip touches that
    // circuit's bit, a switch flip touches its incident circuits' bits.
    for (const Topology::StateChange e : changes_scratch_) {
      if (Topology::change_is_switch(e)) {
        for (const CircuitId c : topo_.incident(Topology::change_switch(e))) {
          set_circuit_alive(c, topo_.circuit_carries_traffic(c));
        }
      } else {
        const CircuitId c = Topology::change_circuit(e);
        set_circuit_alive(c, topo_.circuit_carries_traffic(c));
      }
    }
  } else {
    m_alive_full_rebuilds_.inc();
    topo_.liveness_words(alive_words_);
    // The full-rebuild path is also where out-of-band capacity edits land
    // (bump_state_version resets journal coverage), so re-inline the split
    // weights while we are touching every arc's circuit anyway.
    for (Arc& arc : arcs_) {
      const std::uint32_t c = arc.fwd_slot >> 1;
      arc.weight = capacity_weight(
          topo_.circuit(static_cast<CircuitId>(c)).capacity_tbps, c);
    }
  }
  alive_valid_ = true;
  alive_version_ = v;
}

std::size_t EcmpRouter::bfs_from_targets(Scratch& s,
                                         const Demand& demand) const {
  s.begin_bfs();

  for (const SwitchId t : demand.targets) {
    if (!topo_.sw(t).active()) continue;
    const auto ti = static_cast<std::size_t>(t);
    if (s.stamp[ti] != s.epoch) {
      s.stamp[ti] = s.epoch;
      s.dist[ti] = 0;
      s.volume[ti] = 0;  // lazy zero: only visited switches pay
      s.visit_order.push_back(t);
    }
  }
  if (s.visit_order.empty()) return 0;

  // Standard BFS; visit_order doubles as the queue (ascending distance).
  // Stamping replaces the O(|S|) dist/volume clears of a naive BFS.
  for (std::size_t head = 0; head < s.visit_order.size(); ++head) {
    const SwitchId u = s.visit_order[head];
    const std::int32_t du = s.dist[static_cast<std::size_t>(u)];
    const std::uint32_t end = offsets_[static_cast<std::size_t>(u) + 1];
    for (std::uint32_t i = offsets_[static_cast<std::size_t>(u)]; i < end;
         ++i) {
      const Arc& arc = arcs_[i];
      if (!(alive_words_[arc.alive_word] & arc.alive_mask)) continue;
      const auto ni = static_cast<std::size_t>(arc.neighbor);
      if (s.stamp[ni] != s.epoch) {
        s.stamp[ni] = s.epoch;
        s.dist[ni] = du + 1;
        s.volume[ni] = 0;
        s.visit_order.push_back(arc.neighbor);
      }
    }
  }
  return s.visit_order.size();
}

bool EcmpRouter::inject_sources(Scratch& s, const Demand& demand,
                                Load volume) const {
  // Count active sources and check reachability first (Eq. 4).
  std::size_t active_sources = 0;
  for (const SwitchId src : demand.sources) {
    if (!topo_.sw(src).active()) continue;
    if (!s.reached(src)) return false;
    ++active_sources;
  }
  if (active_sources == 0) return true;  // vacuously satisfied, no load

  const Load per_source = ceil_div(volume, active_sources);
  for (const SwitchId src : demand.sources) {
    if (topo_.sw(src).active()) {
      s.volume[static_cast<std::size_t>(src)] += per_source;
    }
  }
  return true;
}

void EcmpRouter::propagate(Scratch& s, std::vector<LoadEntry>& out) const {
  // Propagate along the DAG in decreasing distance: visit_order is in
  // ascending distance, so walk it backwards. A switch's volume splits over
  // circuits toward neighbors one step closer to a target. A directional
  // slot is appended at most once: the arc u -> n is a DAG edge only when
  // dist[n] == dist[u] - 1, which the reverse direction cannot satisfy, and
  // each directed arc is scanned exactly once.
  const bool equal = mode_ == SplitMode::kEqualSplit;
  for (std::size_t idx = s.visit_order.size(); idx-- > 0;) {
    const SwitchId u = s.visit_order[idx];
    const Load vol = s.volume[static_cast<std::size_t>(u)];
    if (vol == 0) continue;
    const std::int32_t du = s.dist[static_cast<std::size_t>(u)];
    if (du == 0) continue;  // absorbed at a target

    // Single scan: collect the equal-cost next hops. An alive arc from a
    // reached switch always has a reached neighbor (BFS relaxed it under
    // the same liveness words), so dist reads are valid.
    s.next_hops.clear();
    const std::uint32_t end = offsets_[static_cast<std::size_t>(u) + 1];
    for (std::uint32_t i = offsets_[static_cast<std::size_t>(u)]; i < end;
         ++i) {
      const Arc& arc = arcs_[i];
      if (!(alive_words_[arc.alive_word] & arc.alive_mask)) continue;
      assert(s.reached(arc.neighbor));
      if (s.dist[static_cast<std::size_t>(arc.neighbor)] != du - 1) continue;
      s.next_hops.push_back(i);
    }
    assert(!s.next_hops.empty() && "reached switch must have a next hop");

    if (equal) {
      const Load share = ceil_div(vol, s.next_hops.size());
      for (const std::uint32_t i : s.next_hops) {
        const Arc& arc = arcs_[i];
        out.push_back(LoadEntry{arc.fwd_slot, share});
        s.volume[static_cast<std::size_t>(arc.neighbor)] += share;
      }
      continue;
    }
    WideLoad total_weight = 0;
    for (const std::uint32_t i : s.next_hops) total_weight += arcs_[i].weight;
    for (const std::uint32_t i : s.next_hops) {
      const Arc& arc = arcs_[i];
      const Load share = weighted_share(vol, arc.weight, total_weight);
      out.push_back(LoadEntry{arc.fwd_slot, share});
      s.volume[static_cast<std::size_t>(arc.neighbor)] += share;
    }
  }
}

bool EcmpRouter::assign(const Demand& demand, LoadVector& loads) {
  loads.resize(topo_.num_circuits() * 2, 0);
  touched_circuits_.clear();

  demand_loads({&demand, 1}, 1, arcs_.size(), volumes_);
  refresh_alive();
  if (scratch_.dist.size() != num_switches_) scratch_.init(num_switches_);
  if (bfs_from_targets(scratch_, demand) == 0) return false;
  if (!inject_sources(scratch_, demand, volumes_[0])) return false;
  entries_scratch_.clear();
  propagate(scratch_, entries_scratch_);
  for (const LoadEntry& e : entries_scratch_) add_load(loads, e.slot, e.value);
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

bool EcmpRouter::run_group(const DemandSet& demands, const Group& group,
                           std::string* failed_demand) {
  entries_scratch_.clear();
  // All demands of a group share one target set, hence one BFS and one
  // merged propagation of their summed volumes.
  const Demand& representative = demands[group.front()];
  if (bfs_from_targets(scratch_, representative) == 0) {  // no active target
    if (failed_demand != nullptr) *failed_demand = representative.name;
    return false;
  }
  for (const std::uint32_t i : group) {
    if (!inject_sources(scratch_, demands[i], volumes_[i])) {
      if (failed_demand != nullptr) *failed_demand = demands[i].name;
      return false;
    }
  }
  propagate(scratch_, entries_scratch_);
  return true;
}

void EcmpRouter::add_group(const std::vector<LoadEntry>& entries,
                           LoadVector& loads) {
  for (const LoadEntry& e : entries) {
    add_load(loads, e.slot, e.value);
    const std::uint32_t c = e.slot >> 1;
    touched_words_[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
}

void EcmpRouter::collect_touched() {
  // Shares are strictly positive, so every marked circuit carries load.
  // Scanning the word array gives ascending order for a popcount pass over
  // C/64 words — no comparison sort.
  for (std::size_t w = 0; w < touched_words_.size(); ++w) {
    std::uint64_t bits = touched_words_[w];
    if (bits == 0) continue;
    touched_words_[w] = 0;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      touched_circuits_.push_back(
          static_cast<CircuitId>((w << 6) + static_cast<std::size_t>(bit)));
    }
  }
}

bool EcmpRouter::assign_all(const DemandSet& demands, LoadVector& loads,
                            std::string* failed_demand) {
  loads.resize(topo_.num_circuits() * 2, 0);
  touched_circuits_.clear();
  const std::vector<Group> groups = group_by_targets(demands);
  demand_loads(demands, groups.size(), arcs_.size(), volumes_);
  refresh_alive();
  if (scratch_.dist.size() != num_switches_) scratch_.init(num_switches_);

  for (const Group& group : groups) {
    ++group_recomputes_;
    m_group_recomputes_.inc();
    if (!run_group(demands, group, failed_demand)) {
      std::fill(touched_words_.begin(), touched_words_.end(), 0);
      return false;
    }
    add_group(entries_scratch_, loads);
  }
  collect_touched();
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
