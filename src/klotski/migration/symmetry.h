// Symmetry blocks (§4.1, following Janus [4]).
//
// Switches are *equivalent* when no constraint or cost can distinguish
// them: same role, generation, life-cycle state, port budget, and the same
// multiset of (neighbor class, circuit capacity, circuit state) edges.
// Equivalence is computed by color refinement (iterated partition
// refinement over neighbor-class multisets), the standard 1-WL algorithm;
// its fixed point is a sound under-approximation of topological symmetry —
// switches it groups together are guaranteed interchangeable.
//
// The paper's observation, reproduced by these routines and asserted in the
// test suite: on Meta-style production topologies a symmetry block contains
// at most a couple of switches once migrations stage asymmetric hardware,
// which is why symmetry alone (Janus) prunes too little and Klotski merges
// blocks by *locality* into operation blocks.
//
// Colors are raw 64-bit hashes throughout refinement (no per-round dense
// renumbering). Classes are renumbered densely (first occurrence in
// switch-id order) only when the final partition is built.
//
// The refinement loop is shared: compute_symmetry seeds it with what a
// constraint sees on a switch in its current state, and a planner's search
// scope (core/search_scope.h) seeds it with what the whole search can do
// to a switch — its original state and block ops — to get the partition
// its demand and port checks route on.
#pragma once

#include <cstdint>
#include <vector>

#include "klotski/topo/topology.h"

namespace klotski::migration {

/// A partition of all switches into equivalence classes.
struct SymmetryPartition {
  /// class_of[switch id] = class index (dense, 0-based).
  std::vector<std::int32_t> class_of;
  /// blocks[class index] = switch ids in the class (ascending).
  std::vector<std::vector<topo::SwitchId>> blocks;

  std::size_t num_blocks() const { return blocks.size(); }

  /// Size of the largest class.
  std::size_t largest_block() const;

  /// Histogram: count of blocks per block size.
  std::vector<std::pair<std::size_t, std::size_t>> size_histogram() const;
};

/// Refines per-switch seed colors to the 1-WL fixed point. Each round
/// replaces a switch's color with a hash of its color and the sorted
/// multiset of (circuit color, neighbor color) over its incident circuits,
/// until the number of distinct colors stops growing (at most |S| rounds).
/// Switches end with equal colors iff color refinement cannot tell them
/// apart, up to a 2^-64 hash collision; a caller that needs certainty
/// verifies the result (traffic::Quotient::build does).
std::vector<std::uint64_t> refine_colors(
    const topo::Topology& topo, std::vector<std::uint64_t> seeds,
    const std::vector<std::uint64_t>& circuit_colors);

/// The classes of a coloring, numbered densely by first occurrence in
/// switch-id order.
SymmetryPartition partition_of(const std::vector<std::uint64_t>& colors);

/// Computes the symmetry partition of the current element states.
/// Runs O(iterations * (|S| + |C|) log) with at most |S| refinement rounds.
SymmetryPartition compute_symmetry(const topo::Topology& topo);

/// True iff `a` and `b` land in the same class of `partition`.
bool equivalent(const SymmetryPartition& partition, topo::SwitchId a,
                topo::SwitchId b);

/// Switches whose class *membership set* differs between two partitions
/// of the same switches: s is listed iff the set of switches s is
/// interchangeable with in `after` differs from that in `before`. Every
/// switch of `after` is listed when the partitions cover different switch
/// counts. Sorted ascending. The warm-repair gate (DESIGN.md §11) compares
/// the partitions of the world a plan was made in and of the current world.
std::vector<topo::SwitchId> changed_switches(const SymmetryPartition& before,
                                             const SymmetryPartition& after);

}  // namespace klotski::migration
