// The ordering-agnostic compact topology representation of §4.2.
//
// Two states reached by different action orderings are equivalent whenever
// they have performed the same *number* of actions of each type, because the
// i-th executed block of a type is fixed (blocks of one type are
// interchangeable symmetry-block unions). A topology is therefore
// represented by the vector V = (v_i) of finished action counts per type —
// a handful of small integers instead of an O(|S|+|C|) graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "klotski/util/hash.h"

namespace klotski::core {

using CountVector = std::vector<std::int32_t>;

/// Total finished actions.
std::int32_t total_actions(const CountVector& counts);

/// True iff counts == target componentwise.
bool is_target(const CountVector& counts, const CountVector& target);

/// Incremental Zobrist hash over a count vector: the hash is the XOR of one
/// util::zobrist_key per (type, count) slot plus an arity term, so applying
/// or unapplying a single action updates it in O(1) instead of rehashing
/// all of V. Every structure keyed on V (sat cache, A* dedup table, DP
/// odometer) uses this one definition, so hashes computed incrementally
/// along a search path agree bit-for-bit with from-scratch hashes.
struct StateHasher {
  static std::uint64_t hash(const std::int32_t* counts, std::size_t n) {
    std::uint64_t h = util::mix64(0x5DEECE66DULL ^ n);
    for (std::size_t t = 0; t < n; ++t) {
      h ^= util::zobrist_key(static_cast<std::int32_t>(t), counts[t]);
    }
    return h;
  }
  static std::uint64_t hash(const CountVector& counts) {
    return hash(counts.data(), counts.size());
  }

  /// O(1) re-hash after counts[type] changes from `from` to `to`.
  static constexpr std::uint64_t update(std::uint64_t h, std::int32_t type,
                                        std::int32_t from, std::int32_t to) {
    return h ^ util::zobrist_key(type, from) ^ util::zobrist_key(type, to);
  }

  /// Search-state hash: the count hash folded with the last action type
  /// (-1 before any action), for duplicate detection keyed on (V, last).
  static constexpr std::uint64_t with_last(std::uint64_t count_hash,
                                           std::int32_t last_type) {
    return util::hash_combine(count_hash,
                              static_cast<std::uint64_t>(last_type + 1));
  }
};

/// Hash functor for generic cache tables keyed on V. Hot paths (planners,
/// sat cache) carry StateHasher values incrementally instead of calling
/// this per probe.
struct CountVectorHash {
  std::size_t operator()(const CountVector& v) const {
    return static_cast<std::size_t>(StateHasher::hash(v));
  }
};

/// A search state: the compact representation plus the last action type
/// (needed by the cost function; -1 before any action).
struct SearchState {
  CountVector counts;
  std::int32_t last_type = -1;

  friend bool operator==(const SearchState&, const SearchState&) = default;
};

struct SearchStateHash {
  std::size_t operator()(const SearchState& s) const {
    return static_cast<std::size_t>(
        StateHasher::with_last(StateHasher::hash(s.counts), s.last_type));
  }
};

}  // namespace klotski::core
