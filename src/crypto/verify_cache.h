// Digest-keyed signature-verification memo.
//
// A NWADE broadcast makes every vehicle node verify the *same* block bytes
// against the *same* IM public key: N receivers, N identical modexps. Since
// signature verification is a pure function of (key, message, signature),
// the first receiver's answer is everyone's answer. This cache keys results
// by SHA-256 over those three inputs, so a run pays one modexp per block and
// N-1 hash-lookups.
//
// Correctness properties:
//   * A tampered message or signature changes the key digest, so it can
//     never alias its honest twin — a forged block always recomputes (and
//     fails) on its own cache miss.
//   * Key rotation changes the verifier fingerprint folded into the key, so
//     stale entries for a retired key are unreachable, not merely evicted.
//   * Capacity is bounded with exact FIFO eviction; capacity 0 disables
//     caching entirely (every lookup misses, stores are dropped).
//
// Ownership: each World owns one cache and hands it to its IM verifier
// (Signer::verifier_with_cache). Vehicles verify inside event delivery, so
// only the thread stepping that World ever touches it: the memo takes no
// lock.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "crypto/sha256.h"

namespace nwade::crypto {

class SigVerifyCache {
 public:
  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
    std::uint64_t evictions{0};
  };

  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit SigVerifyCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Cache key: SHA-256 over (verifier fingerprint, message, signature),
  /// length-prefixed.
  static Digest key_of(const Digest& verifier_fingerprint,
                       std::span<const std::uint8_t> msg,
                       std::span<const std::uint8_t> sig);

  /// The cached verdict for `key`, counting a hit/miss either way.
  std::optional<bool> lookup(const Digest& key);

  /// Records a verdict, evicting the oldest entry when full. Idempotent for
  /// a key already present (verdicts are pure, so the value cannot differ).
  void store(const Digest& key, bool ok);

  /// Live entry count (≤ capacity).
  std::size_t size() const { return verdicts_.size(); }
  std::size_t capacity() const { return capacity_; }
  Stats stats() const { return stats_; }

  /// Field list: capacity, counters, then the entries in 16 lists — list i
  /// holds the keys with key[8] % 16 == i, in FIFO order — so a resumed run
  /// replays the same hits, misses, and evictions. The lists are a v1 wire
  /// detail (docs/CHECKPOINT.md). A read overwrites the cache in place and
  /// rejects a list that is not a valid slice of one FIFO.
  template <class Ar, class Self> static void io(Ar& ar, Self& cache);

 private:
  /// The key is itself a SHA-256 output, so any 8 bytes are a good hash.
  struct KeyHash {
    std::size_t operator()(const Digest& d) const {
      std::size_t h;
      std::memcpy(&h, d.data(), sizeof(h));
      return h;
    }
  };

  std::size_t capacity_;
  std::uint64_t next_seq_{0};  ///< insertion sequence of the next store
  Stats stats_;
  std::unordered_map<Digest, bool, KeyHash> verdicts_;
  /// (insertion seq, key), oldest first; always in step with `verdicts_`.
  std::deque<std::pair<std::uint64_t, Digest>> fifo_;
};

}  // namespace nwade::crypto
