// Content-addressed plan cache: sharded, single-flight, with a shared
// crash-safe disk spill.
//
// Keys are json::content_hash digests of the canonicalized request (see
// canonical.h): bit-stable across runs and processes, so a spill directory
// written by one daemon generation is a warm cache for the next. Values are
// the exact response bytes (the pretty-printed plan JSON text the CLI would
// have written), so a cache hit is byte-identical to a cold run by
// construction.
//
// Sharding: the key space is split across Options::shards independent
// shards, each with its own mutex, LRU list and in-flight table, so
// concurrent hits on different keys never contend on one lock — the
// fleet-front-door requirement. Single-flight semantics are unchanged
// (a key lives in exactly one shard, chosen by key hash), and shard count
// never changes the bytes served: with shards == 1 the cache degenerates to
// one global LRU, which is what the LRU-order tests pin. Capacity is split
// evenly across shards (at least one entry each), so eviction order is
// per-shard LRU, not global.
//
// Single-flight: when N identical requests arrive concurrently, exactly one
// caller becomes the *owner* (runs the planner); the rest become *waiters*
// and block on the owner's entry. All N observers receive the same bytes
// and the planner runs once — the serve test asserts this with the
// serve.plan_runs counter.
//
// find_completed() is the memory-only half of acquire(): it answers a key
// whose entry is already completed in memory and does nothing else. The
// daemon's connection threads use it to serve such hits without a worker;
// everything else (misses, waits, spill reads) goes through acquire().
//
// Disk spill ("<dir>/<key>.json", format klotski-spill-v2): fulfilled
// entries are written through to disk and LRU-evicted keys remain servable
// from it (a spill hit re-enters the memory LRU). Writes are crash-safe:
// the bytes go to a same-directory temp file first and are renamed into
// place, and each file carries a one-line header with the payload length
// and util::StableDigest, verified on read — a torn, truncated or
// otherwise corrupt spill file is quarantined (removed) and reads as a
// miss, never served as a hit. Failures are never cached: the owner's
// error is delivered to the waiters of that flight only, and the next
// request recomputes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace klotski::serve {

class PlanCache {
 public:
  struct Options {
    std::size_t capacity = 128;  // completed entries held in memory, total
    std::string spill_dir;       // empty = no on-disk spill
    int shards = 8;              // independent lock domains (>= 1)
  };

  /// Shared state of one in-flight computation. Owners fulfill or fail it;
  /// waiters block on it. Lifetime is managed by shared_ptr so a waiter can
  /// outlive the cache's bookkeeping for the flight.
  class Entry {
   public:
    explicit Entry(std::string key) : key_(std::move(key)) {}
    const std::string& key() const { return key_; }

   private:
    friend class PlanCache;
    enum class State { kPending, kDone, kFailed };

    std::string key_;
    std::mutex mu_;
    std::condition_variable cv_;
    State state_ = State::kPending;
    std::string text_;
    std::string error_;
  };

  enum class Outcome {
    kHit,    // text is the cached bytes; no work to do
    kOwner,  // caller must compute, then fulfill() or fail() the entry
    kWait,   // another caller is computing; block in wait()
  };

  struct Lookup {
    Outcome outcome = Outcome::kHit;
    std::string text;               // valid when kHit
    std::shared_ptr<Entry> entry;   // valid when kOwner / kWait
  };

  /// Always-on counters (independent of the obs enable flag) backing the
  /// daemon's `stats` endpoint. Aggregated across shards.
  struct Stats {
    long long hits = 0;        // memory LRU hits (acquire + find_completed)
    long long misses = 0;      // owner flights started
    long long coalesced = 0;   // waiters attached to an in-flight entry
    long long evictions = 0;   // completed entries dropped from memory
    long long spill_hits = 0;  // served from the spill dir after eviction
    long long spill_writes = 0;
    long long spill_corrupt = 0;  // torn/invalid spill files quarantined
    std::size_t entries = 0;   // completed entries currently in memory
    std::size_t in_flight = 0;
    int shards = 1;
  };

  explicit PlanCache(const Options& options);

  /// Single-flight lookup; see Outcome.
  Lookup acquire(const std::string& key);

  /// Memory-only probe: the bytes of a completed in-memory entry (touching
  /// its LRU position and counting one hit), or nullopt. Never starts a
  /// flight, never counts a miss and never reads the spill dir, so a caller
  /// that finds nothing can still acquire() the key.
  std::optional<std::string> find_completed(const std::string& key);

  /// Owner side: publishes `text` for the entry's key, wakes the waiters,
  /// inserts into the LRU (evicting beyond the shard's capacity share) and
  /// writes the spill file when configured.
  void fulfill(const std::shared_ptr<Entry>& entry, const std::string& text);

  /// Owner side: the computation failed. Waiters of this flight receive
  /// `error`; nothing is cached.
  void fail(const std::shared_ptr<Entry>& entry, const std::string& error);

  /// Waiter side: blocks until the owner fulfills or fails. Throws
  /// std::runtime_error carrying the owner's error on failure.
  std::string wait(const std::shared_ptr<Entry>& entry);

  Stats stats() const;

  /// The spill-file bytes for a payload (header line + payload) and its
  /// inverse. decode_spill returns false on any mismatch — bad magic,
  /// length, or digest — which the cache treats as a miss. Exposed for the
  /// torn-spill regression tests.
  static std::string encode_spill(const std::string& payload);
  static bool decode_spill(const std::string& file_bytes,
                           std::string& payload_out);

 private:
  struct Completed {
    std::string text;
    std::list<std::string>::iterator lru_pos;
  };
  struct Shard {
    mutable std::mutex mu;
    /// MRU-first key order; completed values point into this list.
    std::list<std::string> lru;
    std::unordered_map<std::string, Completed> completed;
    std::unordered_map<std::string, std::shared_ptr<Entry>> in_flight;
  };

  Shard& shard_for(const std::string& key);
  /// A completed entry's bytes, touched and counted as a hit; nullopt when
  /// the key is not completed in the shard.
  std::optional<std::string> hit_locked(Shard& shard, const std::string& key);
  void evict_shard_locked(Shard& shard);
  bool read_spill(const std::string& key, std::string& text_out);
  void write_spill(const std::string& key, const std::string& text);

  Options options_;
  std::size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> spill_seq_{0};

  std::atomic<long long> hits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> coalesced_{0};
  std::atomic<long long> evictions_{0};
  std::atomic<long long> spill_hits_{0};
  std::atomic<long long> spill_writes_{0};
  std::atomic<long long> spill_corrupt_{0};
};

}  // namespace klotski::serve
