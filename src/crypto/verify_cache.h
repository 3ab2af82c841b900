// Digest-keyed signature-verification cache.
//
// A NWADE broadcast makes every vehicle node verify the *same* block bytes
// against the *same* IM public key: N receivers, N identical modexps. Since
// signature verification is a pure function of (key, message, signature),
// the first receiver's answer is everyone's answer. This cache keys results
// by SHA-256 over those three inputs, so the fleet pays one modexp per
// block and N-1 hash-lookups.
//
// Correctness properties:
//   * A tampered message or signature changes the key digest, so it can
//     never alias its honest twin — a forged block always recomputes (and
//     fails) on its own cache miss.
//   * Key rotation changes the verifier fingerprint folded into the key, so
//     stale entries for a retired key are unreachable, not merely evicted.
//   * Capacity is bounded with FIFO eviction; capacity 0 disables caching
//     entirely (every lookup misses, stores are dropped) — used by benches
//     to measure the uncached path.
//
// Concurrency: entries live in `kShards` independently-locked shards (the
// shard is picked from the key digest, which is uniform), and the hit/miss/
// insertion/eviction counters are atomics, so concurrent worlds in a
// campaign never serialize on one mutex. Eviction order is exact global
// FIFO under single-threaded use (each entry carries a global insertion
// sequence and the globally-oldest head is evicted first); under concurrent
// stores it degrades gracefully to per-shard FIFO with a bounded total size.
//
// Ownership: `instance()` is the process-wide default that single-run paths
// (one World per process, micro benches, tests) share. Multi-run hosts —
// the campaign engine running many worlds concurrently — construct one
// cache per run and inject it via `Signer::verifier_with_cache()`, so
// memoized verdicts can neither race nor leak across runs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace nwade::crypto {

/// Hash functor for digest-keyed tables. The key is itself a SHA-256
/// output, so any 8 bytes are a good hash.
struct DigestKeyHash {
  std::size_t operator()(const Digest& d) const {
    std::size_t h;
    static_assert(sizeof(h) <= 32);
    std::memcpy(&h, d.data(), sizeof(h));
    return h;
  }
};

class SigVerifyCache {
 public:
  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
    std::uint64_t evictions{0};
  };

  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kShards = 16;

  explicit SigVerifyCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// The shared process-wide instance used by verifiers that were not handed
  /// a cache of their own.
  static SigVerifyCache& instance();

  /// Cache key: SHA-256 over (verifier fingerprint, message, signature),
  /// length-prefixed.
  static Digest key_of(const Digest& verifier_fingerprint,
                       std::span<const std::uint8_t> msg,
                       std::span<const std::uint8_t> sig);

  /// The cached verdict for `key`, counting a hit/miss either way.
  std::optional<bool> lookup(const Digest& key);

  /// Stats-free probe: the cached verdict without touching the hit/miss
  /// counters. Used by the batch-verify prefetch to decide which pending
  /// signatures still need a modexp — the receivers' own lookup() calls do
  /// the counting later, so run digests that fold cache stats stay
  /// byte-identical whether or not a prefetch ran.
  std::optional<bool> peek(const Digest& key) const;

  /// Records a verdict, evicting the oldest entry when full. Idempotent for
  /// a key already present (verdicts are pure, so the value cannot differ).
  void store(const Digest& key, bool ok);

  /// Drops every entry; the stats survive.
  void clear();

  /// Back to a pristine cache: no entries, zeroed stats. Benches call this
  /// between phases so memoized verdicts from one phase cannot skew the
  /// hit/miss accounting (or the timings) of the next.
  void reset();

  /// Live entry count (≤ capacity).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }
  /// Shrinks immediately if the new capacity is smaller; 0 disables caching.
  void set_capacity(std::size_t capacity);

  Stats stats() const;
  void reset_stats();

  /// Field list: capacity, counters, and every shard's entries in FIFO
  /// order, so a resumed run replays the same hits, misses, and evictions.
  /// A read overwrites the cache in place. Not safe concurrently with
  /// lookups/stores.
  template <class Ar, class Self> static void io(Ar& ar, Self& cache);

 private:
  using DigestHash = DigestKeyHash;

  struct Entry {
    bool ok{false};
    std::uint64_t seq{0};  ///< global insertion sequence (FIFO eviction order)
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Digest, Entry, DigestHash> entries;
    /// Per-shard FIFO of (seq, key); always in sync with `entries` (pops and
    /// erases happen under the same lock).
    std::deque<std::pair<std::uint64_t, Digest>> order;
  };

  Shard& shard_of(const Digest& key) {
    // Byte 8 so the shard index never correlates with DigestHash's bytes 0-7.
    return shards_[key[8] % kShards];
  }
  const Shard& shard_of(const Digest& key) const {
    return shards_[key[8] % kShards];
  }

  void evict_to_capacity();
  bool evict_globally_oldest();

  std::atomic<std::size_t> capacity_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::array<Shard, kShards> shards_;
};

/// One step's worth of pre-computed signature verdicts, produced by the
/// world's batch-verify prefetch (pending block deliveries fanned across
/// the worker pool) and consumed by RsaVerifier::verify *after* a genuinely
/// counted cache miss. Single-writer, read-only while deliveries run; the
/// owner clears it every step. Deliberately invisible to checkpoints — it
/// is a pure acceleration side-table whose contents are recomputable.
class SigBatchTable {
 public:
  void clear() { entries_.clear(); }
  void put(const Digest& key, bool ok) { entries_[key] = ok; }
  std::optional<bool> find(const Digest& key) const {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }
  bool contains(const Digest& key) const { return entries_.contains(key); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<Digest, bool, DigestKeyHash> entries_;
};

}  // namespace nwade::crypto
