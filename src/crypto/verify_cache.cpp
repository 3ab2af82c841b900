#include "crypto/verify_cache.h"

#include <algorithm>
#include <array>
#include <vector>

#include "util/archive.h"

namespace nwade::crypto {

namespace {
/// Entry lists in the v1 `crypto` section (docs/CHECKPOINT.md).
constexpr std::size_t kWireLists = 16;
}  // namespace

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
  const auto it = verdicts_.find(key);
  if (it == verdicts_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void SigVerifyCache::store(const Digest& key, bool ok) {
  if (capacity_ == 0 || !verdicts_.emplace(key, ok).second) return;
  fifo_.emplace_back(next_seq_++, key);
  ++stats_.insertions;
  while (verdicts_.size() > capacity_) {
    verdicts_.erase(fifo_.front().second);
    fifo_.pop_front();
    ++stats_.evictions;
  }
}

template <class Ar, class Self>
void SigVerifyCache::io(Ar& ar, Self& cache) {
  ar.u64(cache.capacity_);
  ar.u64(cache.next_seq_);
  ar.u64(cache.stats_.hits);
  ar.u64(cache.stats_.misses);
  ar.u64(cache.stats_.insertions);
  ar.u64(cache.stats_.evictions);

  struct Entry {
    std::uint64_t seq{0};
    Digest key{};
    bool ok{false};
  };
  std::array<std::vector<Entry>, kWireLists> lists;
  if constexpr (!Ar::kReading) {
    for (const auto& [seq, key] : cache.fifo_) {
      lists[key[8] % kWireLists].push_back(Entry{seq, key, cache.verdicts_.at(key)});
    }
  }
  for (auto& list : lists) {
    // seq, key, verdict: 45 bytes per entry.
    ar.seq(list, 45, [](auto& a, auto& e) {
      a.u64(e.seq);
      a.digest(e.key);
      a.flag(e.ok);
    }, cache.capacity_);
  }
  if constexpr (Ar::kReading) {
    if (!ar.ok()) return;
    // Each list must be one key class's slice of a single FIFO: its own
    // keys, seqs rising and already issued, no key twice, and no more
    // entries in all than the capacity holds.
    cache.verdicts_.clear();
    std::vector<std::pair<std::uint64_t, Digest>> merged;
    for (std::size_t i = 0; i < kWireLists; ++i) {
      for (std::size_t k = 0; k < lists[i].size(); ++k) {
        const Entry& e = lists[i][k];
        if (e.key[8] % kWireLists != i || e.seq >= cache.next_seq_ ||
            (k > 0 && e.seq <= lists[i][k - 1].seq) ||
            !cache.verdicts_.emplace(e.key, e.ok).second) {
          return ar.fail();
        }
        merged.emplace_back(e.seq, e.key);
      }
    }
    if (merged.size() > cache.capacity_) return ar.fail();
    // Oldest first; equal seqs (no save writes them) keep list order.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    cache.fifo_.assign(merged.begin(), merged.end());
  }
}
template void SigVerifyCache::io(WriteArchive&, const SigVerifyCache&);
template void SigVerifyCache::io(ReadArchive&, SigVerifyCache&);

}  // namespace nwade::crypto
