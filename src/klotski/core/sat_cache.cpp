#include "klotski/core/sat_cache.h"

#include <cstring>

namespace klotski::core {

namespace {
constexpr std::size_t kInitialSlots = 64;
}

const SatCache::Slot* SatCache::find(const std::int32_t* counts,
                                     std::size_t n,
                                     std::uint64_t hash) const {
  if (slots_.empty()) return nullptr;
  for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
    const Slot& s = slots_[i];
    if (!s.live) return nullptr;
    if (s.hash == hash && s.key_len == n &&
        std::memcmp(keys_.data() + s.key_pos, counts,
                    n * sizeof(std::int32_t)) == 0) {
      return &s;
    }
  }
}

void SatCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? kInitialSlots : old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.live) continue;
    for (std::size_t i = s.hash & mask_;; i = (i + 1) & mask_) {
      if (!slots_[i].live) {
        slots_[i] = s;
        break;
      }
    }
  }
}

std::optional<bool> SatCache::lookup(const std::int32_t* counts,
                                     std::size_t n,
                                     std::uint64_t hash) const {
  if (const Slot* s = find(counts, n, hash)) return s->verdict != 0;
  return std::nullopt;
}

void SatCache::store(const std::int32_t* counts, std::size_t n,
                     std::uint64_t hash, bool satisfiable) {
  // The verdict of a topology never changes, so a duplicate store is a
  // no-op rather than an overwrite (first store wins).
  if (find(counts, n, hash) != nullptr) return;
  // Load factor cap 7/10.
  if (slots_.empty() || (size_ + 1) * 10 >= slots_.size() * 7) grow();
  for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.live) continue;
    s.hash = hash;
    s.key_pos = static_cast<std::uint32_t>(keys_.size());
    s.key_len = static_cast<std::uint16_t>(n);
    s.live = 1;
    s.verdict = satisfiable ? 1 : 0;
    keys_.insert(keys_.end(), counts, counts + n);
    ++size_;
    return;
  }
}

void SatCache::clear() { *this = SatCache(); }

std::size_t SatCache::approx_memory_bytes() const {
  return slots_.capacity() * sizeof(Slot) +
         keys_.capacity() * sizeof(std::int32_t);
}

}  // namespace klotski::core
