#include "klotski/migration/symmetry.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "klotski/util/hash.h"

namespace klotski::migration {

using topo::CircuitId;
using topo::SwitchId;
using topo::Topology;

namespace {

/// Initial coloring: everything a constraint can see locally on the switch
/// itself.
std::uint64_t initial_color(const topo::Switch& s) {
  std::uint64_t h = util::hash_combine(0x9E3779B97F4A7C15ULL,
                                       static_cast<std::uint64_t>(s.role));
  h = util::hash_combine(h, static_cast<std::uint64_t>(s.gen));
  h = util::hash_combine(h, static_cast<std::uint64_t>(s.state));
  return util::hash_combine(h, static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(s.max_ports)));
}

/// Edge signature: capacity and circuit state matter to constraints.
std::uint64_t edge_signature(const topo::Circuit& c) {
  return util::hash_combine(static_cast<std::uint64_t>(c.capacity_tbps * 1e6),
                            static_cast<std::uint64_t>(c.state));
}

/// One switch's refined color: hash of its previous color and the sorted
/// multiset of (circuit color, previous neighbor color) over all incident
/// circuits. `scratch` avoids per-call allocation.
std::uint64_t refine_one(const Topology& topo, SwitchId sw,
                         const std::vector<std::uint64_t>& circuit_colors,
                         const std::vector<std::uint64_t>& prev,
                         std::vector<std::uint64_t>& scratch) {
  scratch.clear();
  for (const CircuitId c : topo.incident(sw)) {
    const topo::Circuit& circuit = topo.circuits()[static_cast<std::size_t>(c)];
    const SwitchId other = circuit.a == sw ? circuit.b : circuit.a;
    scratch.push_back(util::hash_combine(
        circuit_colors[static_cast<std::size_t>(c)],
        prev[static_cast<std::size_t>(other)]));
  }
  std::sort(scratch.begin(), scratch.end());
  return util::hash_combine(prev[static_cast<std::size_t>(sw)],
                            util::hash_span(scratch.data(), scratch.size()));
}

std::size_t distinct_colors(const std::vector<std::uint64_t>& colors) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(colors.size() * 2);
  for (const std::uint64_t c : colors) seen.insert(c);
  return seen.size();
}

}  // namespace

std::vector<std::uint64_t> refine_colors(
    const Topology& topo, std::vector<std::uint64_t> seeds,
    const std::vector<std::uint64_t>& circuit_colors) {
  const std::size_t n = topo.num_switches();
  std::vector<std::uint64_t> prev = std::move(seeds);
  std::size_t num_colors = distinct_colors(prev);

  std::vector<std::uint64_t> next(n);
  std::vector<std::uint64_t> scratch;
  while (true) {
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = refine_one(topo, static_cast<SwitchId>(i), circuit_colors,
                           prev, scratch);
    }
    const std::size_t next_colors = distinct_colors(next);
    if (next_colors == num_colors) return next;  // fixed point
    num_colors = next_colors;
    prev.swap(next);
  }
}

SymmetryPartition partition_of(const std::vector<std::uint64_t>& colors) {
  const std::size_t n = colors.size();
  SymmetryPartition partition;
  partition.class_of.assign(n, -1);
  std::unordered_map<std::uint64_t, std::int32_t> class_of_color;
  class_of_color.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = class_of_color.emplace(
        colors[i], static_cast<std::int32_t>(class_of_color.size()));
    if (inserted) partition.blocks.emplace_back();
    partition.class_of[i] = it->second;
    partition.blocks[static_cast<std::size_t>(it->second)].push_back(
        static_cast<SwitchId>(i));
  }
  return partition;
}

std::size_t SymmetryPartition::largest_block() const {
  std::size_t largest = 0;
  for (const auto& block : blocks) largest = std::max(largest, block.size());
  return largest;
}

std::vector<std::pair<std::size_t, std::size_t>>
SymmetryPartition::size_histogram() const {
  std::map<std::size_t, std::size_t> histogram;
  for (const auto& block : blocks) ++histogram[block.size()];
  return {histogram.begin(), histogram.end()};
}

SymmetryPartition compute_symmetry(const Topology& topo) {
  std::vector<std::uint64_t> seeds(topo.num_switches());
  for (const topo::Switch& s : topo.switches()) {
    seeds[static_cast<std::size_t>(s.id)] = initial_color(s);
  }
  std::vector<std::uint64_t> edge_sigs(topo.num_circuits());
  for (std::size_t c = 0; c < topo.num_circuits(); ++c) {
    edge_sigs[c] = edge_signature(topo.circuits()[c]);
  }
  return partition_of(refine_colors(topo, std::move(seeds), edge_sigs));
}

bool equivalent(const SymmetryPartition& partition, SwitchId a, SwitchId b) {
  return partition.class_of[static_cast<std::size_t>(a)] ==
         partition.class_of[static_cast<std::size_t>(b)];
}

std::vector<SwitchId> changed_switches(const SymmetryPartition& before,
                                       const SymmetryPartition& after) {
  // A switch's interchangeability context changed iff its old class and new
  // class differ as member sets. Old blocks partition the switches, and
  // block member lists are ascending, so one vector compare per old block
  // covers every switch in O(|S|) total.
  std::vector<SwitchId> changed;
  if (before.class_of.size() != after.class_of.size()) {
    for (std::size_t i = 0; i < after.class_of.size(); ++i) {
      changed.push_back(static_cast<SwitchId>(i));
    }
    return changed;
  }
  for (const std::vector<SwitchId>& old_block : before.blocks) {
    if (old_block.empty()) continue;
    const auto new_class = static_cast<std::size_t>(
        after.class_of[static_cast<std::size_t>(old_block.front())]);
    if (old_block != after.blocks[new_class]) {
      changed.insert(changed.end(), old_block.begin(), old_block.end());
    }
  }
  std::sort(changed.begin(), changed.end());
  return changed;
}

}  // namespace klotski::migration
