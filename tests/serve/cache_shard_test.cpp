// Tests for the sharded plan cache's disk tier and shard semantics: the
// crash-safe spill envelope (atomic tmp+rename publish, digest-verified
// reads, torn files quarantined as misses — the regression suite for the
// non-atomic-spill bug), shard-count invariance of the served bytes, and
// stats aggregation under sharded concurrent access.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "klotski/serve/plan_cache.h"

namespace klotski::serve {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test spill directory, removed on destruction.
class SpillDir {
 public:
  explicit SpillDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("klotski-shard-" + tag + "-" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~SpillDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

  std::string spill_file(const std::string& key) const {
    return path_ + "/" + key + ".json";
  }
  std::size_t file_count(const std::string& substring = "") const {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(path_)) {
      if (substring.empty() ||
          entry.path().filename().string().find(substring) !=
              std::string::npos) {
        ++n;
      }
    }
    return n;
  }

 private:
  std::string path_;
};

void put(PlanCache& cache, const std::string& key, const std::string& text) {
  PlanCache::Lookup lookup = cache.acquire(key);
  ASSERT_EQ(lookup.outcome, PlanCache::Outcome::kOwner) << key;
  cache.fulfill(lookup.entry, text);
}

// --- spill envelope ------------------------------------------------------

TEST(SpillEnvelopeTest, RoundTripsArbitraryPayloads) {
  for (const std::string& payload :
       {std::string(), std::string("x"), std::string("line\nline\n"),
        std::string(1 << 16, 'p')}) {
    const std::string encoded = PlanCache::encode_spill(payload);
    std::string decoded;
    ASSERT_TRUE(PlanCache::decode_spill(encoded, decoded));
    EXPECT_EQ(decoded, payload);
  }
}

TEST(SpillEnvelopeTest, RejectsTornAndForeignBytes) {
  const std::string payload = "plan bytes plan bytes plan bytes";
  const std::string encoded = PlanCache::encode_spill(payload);
  std::string out;

  // Truncation anywhere — inside the header or inside the payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, encoded.size() / 2,
        encoded.size() - 1}) {
    EXPECT_FALSE(PlanCache::decode_spill(encoded.substr(0, keep), out))
        << "kept " << keep << " bytes";
  }
  // Appended garbage (interleaved overwrite): length no longer matches.
  EXPECT_FALSE(PlanCache::decode_spill(encoded + "tail", out));
  // A flipped payload byte fails the digest even with the length intact.
  std::string flipped = encoded;
  flipped.back() ^= 0x1;
  EXPECT_FALSE(PlanCache::decode_spill(flipped, out));
  // v1 files were raw payloads with no header: never decodable.
  EXPECT_FALSE(PlanCache::decode_spill(payload, out));
}

// --- crash-safe spill files ---------------------------------------------

// Regression: spill files used to be written in place (open + write), so a
// crash or concurrent reader could observe a torn "<key>.json" and acquire()
// would serve the partial bytes as a hit. Truncated files must read as
// misses and be quarantined.
TEST(SpillCrashSafetyTest, TruncatedSpillFileIsMissNotCorruptHit) {
  SpillDir dir("torn");
  PlanCache cache(PlanCache::Options{1, dir.path(), 1});
  put(cache, "a", "payload-a-payload-a-payload-a");
  put(cache, "b", "payload-b");  // capacity 1: evicts a to disk only
  ASSERT_EQ(cache.stats().evictions, 1);

  // Tear the file the way a mid-write crash would: keep a prefix.
  const std::string path = dir.spill_file("a");
  ASSERT_TRUE(fs::exists(path));
  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size / 2);

  PlanCache::Lookup lookup = cache.acquire("a");
  EXPECT_EQ(lookup.outcome, PlanCache::Outcome::kOwner)
      << "torn spill served as a hit";
  EXPECT_EQ(cache.stats().spill_corrupt, 1);
  EXPECT_FALSE(fs::exists(path)) << "torn spill not quarantined";

  // The owner recomputes and the rewritten file is whole again.
  cache.fulfill(lookup.entry, "payload-a-recomputed");
  put(cache, "c", "payload-c");  // evict a again
  PlanCache::Lookup again = cache.acquire("a");
  EXPECT_EQ(again.outcome, PlanCache::Outcome::kHit);
  EXPECT_EQ(again.text, "payload-a-recomputed");
}

TEST(SpillCrashSafetyTest, LegacyHeaderlessFilesReadAsMisses) {
  SpillDir dir("legacy");
  // A v1-era spill file: raw payload, no envelope.
  std::ofstream(dir.spill_file("old")) << "raw v1 plan bytes";
  PlanCache cache(PlanCache::Options{4, dir.path(), 1});
  EXPECT_EQ(cache.acquire("old").outcome, PlanCache::Outcome::kOwner);
  EXPECT_EQ(cache.stats().spill_corrupt, 1);
}

TEST(SpillCrashSafetyTest, PublishIsTmpPlusRenameLeavingNoTempFiles) {
  SpillDir dir("atomic");
  PlanCache cache(PlanCache::Options{8, dir.path(), 4});
  for (int i = 0; i < 8; ++i) {
    put(cache, std::string("k").append(std::to_string(i)),
        std::string(4096, 'v'));
  }
  EXPECT_EQ(cache.stats().spill_writes, 8);
  EXPECT_EQ(dir.file_count(), 8u);
  EXPECT_EQ(dir.file_count(".tmp."), 0u)
      << "temp files must never outlive a successful publish";
  // Every published file decodes — none is a bare payload.
  for (int i = 0; i < 8; ++i) {
    std::ifstream in(
        dir.spill_file(std::string("k").append(std::to_string(i))));
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::string payload;
    EXPECT_TRUE(PlanCache::decode_spill(bytes, payload));
    EXPECT_EQ(payload, std::string(4096, 'v'));
  }
}

// --- shard semantics -----------------------------------------------------

TEST(ShardingTest, ServedBytesAreInvariantAcrossShardCounts) {
  // The same key set, loaded into caches with different shard counts (and
  // a shared spill dir read by a differently-sharded successor), must yield
  // byte-identical text — sharding is a locking strategy, not a semantic.
  SpillDir dir("invariant");
  const int kKeys = 16;
  auto text_for = [](int i) {
    return "plan:" + std::to_string(i) + ":" + std::string(64, 'x');
  };
  for (const int shards : {1, 3, 8}) {
    PlanCache::Options options;
    options.capacity = 64;
    options.shards = shards;
    PlanCache cache(options);
    for (int i = 0; i < kKeys; ++i) {
      put(cache, "key" + std::to_string(i), text_for(i));
    }
    EXPECT_EQ(cache.stats().shards, shards);
    for (int i = 0; i < kKeys; ++i) {
      PlanCache::Lookup lookup = cache.acquire("key" + std::to_string(i));
      ASSERT_EQ(lookup.outcome, PlanCache::Outcome::kHit);
      EXPECT_EQ(lookup.text, text_for(i)) << "shards=" << shards;
    }
  }
  // Writer sharded one way, reader another, bridged by the spill dir.
  {
    PlanCache writer(PlanCache::Options{4, dir.path(), 2});
    for (int i = 0; i < kKeys; ++i) {
      put(writer, "key" + std::to_string(i), text_for(i));
    }
  }
  PlanCache reader(PlanCache::Options{64, dir.path(), 7});
  for (int i = 0; i < kKeys; ++i) {
    PlanCache::Lookup lookup = reader.acquire("key" + std::to_string(i));
    ASSERT_EQ(lookup.outcome, PlanCache::Outcome::kHit) << i;
    EXPECT_EQ(lookup.text, text_for(i));
  }
}

TEST(ShardingTest, ConcurrentMixedKeysKeepSingleFlightPerKey) {
  PlanCache::Options options;
  options.capacity = 64;
  options.shards = 8;
  PlanCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::string key =
            "key" + std::to_string((t * 7 + op) % kKeys);
        const std::string expected = "text:" + key;
        PlanCache::Lookup lookup = cache.acquire(key);
        std::string got;
        switch (lookup.outcome) {
          case PlanCache::Outcome::kOwner:
            cache.fulfill(lookup.entry, expected);
            got = expected;
            break;
          case PlanCache::Outcome::kWait:
            got = cache.wait(lookup.entry);
            break;
          case PlanCache::Outcome::kHit:
            got = lookup.text;
            break;
        }
        if (got != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const PlanCache::Stats stats = cache.stats();
  // Single-flight per key: exactly one owner ever ran per distinct key.
  EXPECT_EQ(stats.misses, kKeys);
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kKeys));
  EXPECT_EQ(stats.in_flight, 0u);
  // Every operation is accounted exactly once across the shard counters.
  EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
            kThreads * kOpsPerThread);
  EXPECT_EQ(stats.evictions, 0);
}

}  // namespace
}  // namespace klotski::serve
