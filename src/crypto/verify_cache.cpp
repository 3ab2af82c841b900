#include "crypto/verify_cache.h"

#include <limits>

#include "util/archive.h"

namespace nwade::crypto {

SigVerifyCache& SigVerifyCache::instance() {
  static SigVerifyCache cache;
  return cache;
}

Digest SigVerifyCache::key_of(const Digest& verifier_fingerprint,
                              std::span<const std::uint8_t> msg,
                              std::span<const std::uint8_t> sig) {
  Sha256 h;
  h.update(verifier_fingerprint);
  // Length prefix keeps the (msg, sig) boundary unambiguous. Encoded on the
  // stack (little-endian u64, same bytes ByteWriter::u64 would emit): this
  // runs on every cache *hit*, so it must not touch the heap.
  std::uint8_t len[8];
  const std::uint64_t n = msg.size();
  for (int i = 0; i < 8; ++i) len[i] = static_cast<std::uint8_t>(n >> (8 * i));
  h.update(len);
  h.update(msg);
  h.update(sig);
  return h.finish();
}

std::optional<bool> SigVerifyCache::lookup(const Digest& key) {
  Shard& shard = shard_of(key);
  std::optional<bool> verdict;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) verdict = it->second.ok;
  }
  if (verdict) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return verdict;
}

std::optional<bool> SigVerifyCache::peek(const Digest& key) const {
  const Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return std::nullopt;
  return it->second.ok;
}

void SigVerifyCache::store(const Digest& key, bool ok) {
  if (capacity_.load(std::memory_order_relaxed) == 0) return;
  Shard& shard = shard_of(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, inserted] = shard.entries.try_emplace(key);
    if (!inserted) return;
    it->second.ok = ok;
    it->second.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
    shard.order.emplace_back(it->second.seq, key);
  }
  size_.fetch_add(1, std::memory_order_relaxed);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  evict_to_capacity();
}

void SigVerifyCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    size_.fetch_sub(shard.entries.size(), std::memory_order_relaxed);
    shard.entries.clear();
    shard.order.clear();
  }
}

void SigVerifyCache::reset() {
  clear();
  reset_stats();
}

void SigVerifyCache::set_capacity(std::size_t capacity) {
  capacity_.store(capacity, std::memory_order_relaxed);
  evict_to_capacity();
}

SigVerifyCache::Stats SigVerifyCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

void SigVerifyCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  insertions_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

void SigVerifyCache::evict_to_capacity() {
  while (size_.load(std::memory_order_relaxed) >
         capacity_.load(std::memory_order_relaxed)) {
    if (!evict_globally_oldest()) return;
  }
}

bool SigVerifyCache::evict_globally_oldest() {
  // Pass 1: peek every shard's FIFO head (one short lock each) to find the
  // globally-oldest entry. Pass 2: evict that shard's current head. Under
  // concurrent stores the head may have changed between passes — evicting
  // whatever now heads the chosen shard keeps the size bound exact and the
  // order per-shard FIFO, which is all the concurrent contract promises.
  std::size_t best_shard = kShards;
  std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < kShards; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    if (!shards_[i].order.empty() && shards_[i].order.front().first < best_seq) {
      best_seq = shards_[i].order.front().first;
      best_shard = i;
    }
  }
  if (best_shard == kShards) return false;  // raced with clear(); nothing left

  Shard& shard = shards_[best_shard];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.order.empty()) return true;  // retry the sweep
  const Digest victim = shard.order.front().second;
  shard.order.pop_front();
  shard.entries.erase(victim);
  size_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

template <class Ar, class Self>
void SigVerifyCache::io(Ar& ar, Self& cache) {
  ar.u64(cache.capacity_);
  ar.u64(cache.next_seq_);
  ar.u64(cache.hits_);
  ar.u64(cache.misses_);
  ar.u64(cache.insertions_);
  ar.u64(cache.evictions_);
  std::size_t total = 0;
  for (auto& shard : cache.shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    if constexpr (Ar::kReading) shard.entries.clear();
    // FIFO order per shard: seq, key, verdict (45 bytes per entry).
    ar.seq(shard.order, 45, [&shard](auto& a, auto& e) {
      a.u64(e.first);
      a.digest(e.second);
      bool ok = false;
      if constexpr (!Ar::kReading) {
        const auto it = shard.entries.find(e.second);
        ok = it != shard.entries.end() && it->second.ok;
      }
      a.flag(ok);
      if constexpr (Ar::kReading) shard.entries[e.second] = Entry{ok, e.first};
    });
    total += shard.order.size();
  }
  if constexpr (Ar::kReading) cache.size_.store(total, std::memory_order_relaxed);
}
template void SigVerifyCache::io(WriteArchive&, const SigVerifyCache&);
template void SigVerifyCache::io(ReadArchive&, SigVerifyCache&);

}  // namespace nwade::crypto
