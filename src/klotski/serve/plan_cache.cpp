#include "klotski/serve/plan_cache.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <utility>

#include "klotski/obs/metrics.h"
#include "klotski/util/file.h"
#include "klotski/util/hash.h"

namespace klotski::serve {

namespace {

/// Spill header magic. v1 files (raw payload, pre-atomic-write) are
/// deliberately not readable: they cannot be told apart from a torn write,
/// so they re-read as misses and the next fulfill rewrites them as v2.
constexpr const char* kSpillMagic = "klotski-spill-v2";

std::string spill_path(const std::string& dir, const std::string& key) {
  return dir + "/" + key + ".json";
}

}  // namespace

std::string PlanCache::encode_spill(const std::string& payload) {
  std::string out = kSpillMagic;
  out += " ";
  out += std::to_string(payload.size());
  out += " ";
  out += util::stable_digest_hex(payload);
  out += "\n";
  out += payload;
  return out;
}

bool PlanCache::decode_spill(const std::string& file_bytes,
                             std::string& payload_out) {
  const std::size_t newline = file_bytes.find('\n');
  if (newline == std::string::npos) return false;
  const std::string header = file_bytes.substr(0, newline);

  const std::size_t sp1 = header.find(' ');
  if (sp1 == std::string::npos ||
      header.compare(0, sp1, kSpillMagic) != 0) {
    return false;
  }
  const std::size_t sp2 = header.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  std::size_t length = 0;
  try {
    std::size_t consumed = 0;
    const std::string len_text = header.substr(sp1 + 1, sp2 - sp1 - 1);
    length = std::stoull(len_text, &consumed);
    if (consumed != len_text.size()) return false;
  } catch (const std::exception&) {
    return false;
  }
  const std::string digest = header.substr(sp2 + 1);

  // A torn write (pre-rename crash, truncated copy) shows up as a short —
  // or, for an interleaved overwrite, long — payload, or a digest mismatch.
  if (file_bytes.size() - (newline + 1) != length) return false;
  const std::string_view payload(file_bytes.data() + newline + 1, length);
  if (util::stable_digest_hex(payload) != digest) return false;
  payload_out.assign(payload);
  return true;
}

PlanCache::PlanCache(const Options& options) : options_(options) {
  if (options_.shards < 1) options_.shards = 1;
  const auto shard_count = static_cast<std::size_t>(options_.shards);
  per_shard_capacity_ =
      std::max<std::size_t>(1, (options_.capacity + shard_count - 1) /
                                   shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!options_.spill_dir.empty()) {
    std::filesystem::create_directories(options_.spill_dir);
  }
}

PlanCache::Shard& PlanCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool PlanCache::read_spill(const std::string& key, std::string& text_out) {
  if (options_.spill_dir.empty()) return false;
  const std::string path = spill_path(options_.spill_dir, key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;
  std::string file_bytes;
  try {
    file_bytes = util::read_file(path);
  } catch (const std::exception&) {
    return false;
  }
  if (decode_spill(file_bytes, text_out)) return true;
  // Torn or foreign bytes: quarantine so the next fulfill rewrites a good
  // file, and make sure this never serves as a hit.
  std::filesystem::remove(path, ec);
  spill_corrupt_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::global().counter("serve.cache_spill_corrupt").inc();
  return false;
}

void PlanCache::write_spill(const std::string& key, const std::string& text) {
  if (options_.spill_dir.empty()) return;
  const std::string path = spill_path(options_.spill_dir, key);
  // Atomic publish: a crash mid-write leaves only a temp file (ignored and
  // eventually overwritten), never a torn "<key>.json" that a restarted
  // daemon would serve as a hit. The temp name is unique per writer so two
  // owners of different keys — or a racing generation — never interleave.
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(spill_seq_.fetch_add(1, std::memory_order_relaxed));
  try {
    util::write_file(tmp, encode_spill(text));
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return;
    }
  } catch (const std::exception&) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return;
  }
  spill_writes_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::global().counter("serve.cache_spill_writes").inc();
}

std::optional<std::string> PlanCache::hit_locked(Shard& shard,
                                                 const std::string& key) {
  const auto it = shard.completed.find(key);
  if (it == shard.completed.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::global().counter("serve.cache_hits").inc();
  return it->second.text;
}

std::optional<std::string> PlanCache::find_completed(const std::string& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return hit_locked(shard, key);
}

PlanCache::Lookup PlanCache::acquire(const std::string& key) {
  Shard& shard = shard_for(key);
  {
    std::unique_lock<std::mutex> lock(shard.mu);

    if (std::optional<std::string> text = hit_locked(shard, key)) {
      return Lookup{Outcome::kHit, std::move(*text), nullptr};
    }

    if (auto it = shard.in_flight.find(key); it != shard.in_flight.end()) {
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::global().counter("serve.cache_coalesced").inc();
      return Lookup{Outcome::kWait, std::string(), it->second};
    }

    if (options_.spill_dir.empty()) {
      // No disk tier: become owner without dropping the shard lock.
      auto entry = std::make_shared<Entry>(key);
      shard.in_flight[key] = entry;
      misses_.fetch_add(1, std::memory_order_relaxed);
      obs::Registry::global().counter("serve.cache_misses").inc();
      return Lookup{Outcome::kOwner, std::string(), entry};
    }
  }

  // Spill probe outside the shard lock: disk reads must not serialize the
  // other keys of this shard. Two racing readers of the same key may both
  // read the file; the re-insert below keeps only one copy.
  std::string text;
  if (read_spill(key, text)) {
    std::unique_lock<std::mutex> lock(shard.mu);
    if (shard.completed.find(key) == shard.completed.end()) {
      shard.lru.push_front(key);
      shard.completed[key] = Completed{text, shard.lru.begin()};
      evict_shard_locked(shard);
    }
    spill_hits_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::global().counter("serve.cache_spill_hits").inc();
    return Lookup{Outcome::kHit, text, nullptr};
  }

  std::unique_lock<std::mutex> lock(shard.mu);
  // Re-check under the lock: another thread may have become owner (or
  // fulfilled) while this one probed the disk.
  if (std::optional<std::string> text = hit_locked(shard, key)) {
    return Lookup{Outcome::kHit, std::move(*text), nullptr};
  }
  if (auto it = shard.in_flight.find(key); it != shard.in_flight.end()) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::global().counter("serve.cache_coalesced").inc();
    return Lookup{Outcome::kWait, std::string(), it->second};
  }
  auto entry = std::make_shared<Entry>(key);
  shard.in_flight[key] = entry;
  misses_.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::global().counter("serve.cache_misses").inc();
  return Lookup{Outcome::kOwner, std::string(), entry};
}

void PlanCache::fulfill(const std::shared_ptr<Entry>& entry,
                        const std::string& text) {
  Shard& shard = shard_for(entry->key());
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.in_flight.erase(entry->key());
    if (shard.completed.find(entry->key()) == shard.completed.end()) {
      shard.lru.push_front(entry->key());
      shard.completed[entry->key()] = Completed{text, shard.lru.begin()};
      evict_shard_locked(shard);
    }
  }
  write_spill(entry->key(), text);
  {
    std::lock_guard<std::mutex> lock(entry->mu_);
    entry->state_ = Entry::State::kDone;
    entry->text_ = text;
  }
  entry->cv_.notify_all();
}

void PlanCache::fail(const std::shared_ptr<Entry>& entry,
                     const std::string& error) {
  Shard& shard = shard_for(entry->key());
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.in_flight.erase(entry->key());
  }
  {
    std::lock_guard<std::mutex> lock(entry->mu_);
    entry->state_ = Entry::State::kFailed;
    entry->error_ = error;
  }
  entry->cv_.notify_all();
}

std::string PlanCache::wait(const std::shared_ptr<Entry>& entry) {
  std::unique_lock<std::mutex> lock(entry->mu_);
  entry->cv_.wait(lock,
                  [&] { return entry->state_ != Entry::State::kPending; });
  if (entry->state_ == Entry::State::kFailed) {
    throw std::runtime_error(entry->error_);
  }
  return entry->text_;
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.spill_hits = spill_hits_.load(std::memory_order_relaxed);
  stats.spill_writes = spill_writes_.load(std::memory_order_relaxed);
  stats.spill_corrupt = spill_corrupt_.load(std::memory_order_relaxed);
  stats.shards = options_.shards;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->completed.size();
    stats.in_flight += shard->in_flight.size();
  }
  return stats;
}

void PlanCache::evict_shard_locked(Shard& shard) {
  while (shard.completed.size() > per_shard_capacity_ &&
         !shard.lru.empty()) {
    shard.completed.erase(shard.lru.back());
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::global().counter("serve.cache_evictions").inc();
  }
}

}  // namespace klotski::serve
