// The satisfiability cache T_C of §4.2 (efficient satisfiability checking).
//
// Keys are compact topology representations; values are check verdicts.
// Indexing a handful of int32 counters is what makes caching affordable at
// O(10,000)-switch scale — storing whole topologies would not be.
//
// Storage is one open-addressing table keyed by the incremental Zobrist
// hash (StateHasher), with key payloads packed into one flat int32 pool: a
// probe touches one 16-byte slot and compares the count span only on a full
// 64-bit hash match, so lookups never rehash V and the footprint is exact.
//
// A table lives for one search: its owner (StateEvaluator) fills it and
// drops it with the search, and the budgeted A* planner clears it when it
// compacts. Verdicts are immutable, so duplicate stores keep the first
// verdict and a cleared table only costs re-checks, never correctness.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "klotski/core/compact_state.h"

namespace klotski::core {

class SatCache {
 public:
  std::optional<bool> lookup(const std::int32_t* counts, std::size_t n,
                             std::uint64_t hash) const;
  void store(const std::int32_t* counts, std::size_t n, std::uint64_t hash,
             bool satisfiable);

  std::optional<bool> lookup(const CountVector& counts) const {
    return lookup(counts.data(), counts.size(), StateHasher::hash(counts));
  }
  void store(const CountVector& counts, bool satisfiable) {
    store(counts.data(), counts.size(), StateHasher::hash(counts),
          satisfiable);
  }

  std::size_t size() const { return size_; }
  /// Drops every entry and releases the table's memory.
  void clear();

  /// Approximate resident bytes (slot table + key pool), exact up to the
  /// vector headers; the compact representation makes this a few dozen
  /// bytes per state.
  std::size_t approx_memory_bytes() const;

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t key_pos = 0;  // offset into keys_
    std::uint16_t key_len = 0;
    std::uint8_t live = 0;
    std::uint8_t verdict = 0;
  };

  const Slot* find(const std::int32_t* counts, std::size_t n,
                   std::uint64_t hash) const;
  void grow();

  std::vector<Slot> slots_;
  std::vector<std::int32_t> keys_;  // flat key payloads
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace klotski::core
