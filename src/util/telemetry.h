// Unified metrics registry: counters, gauges, and fixed-bucket histograms
// with a single deterministic snapshot/export path.
//
// Design rules, in the order they were chosen:
//
//   1. Determinism first. Every metric value is a 64-bit integer, and shard
//      merge is pure addition — commutative and associative — so a snapshot
//      is byte-identical no matter how work was spread across WorkerPool
//      threads. (Floating-point sums would depend on merge order.) Derived
//      ratios like cache hit rate are computed by consumers from the raw
//      integer parts.
//   2. Hot-path writes are wait-free. A Handle caches a pointer to a row of
//      kShards padded atomic cells; increment = one relaxed fetch_add on
//      the cell picked by a thread-local shard index. No lock, no hash
//      lookup, no allocation after the handle exists.
//   3. Registration is slow-path. counter()/gauge()/histogram() take a
//      mutex and may allocate; call them once at setup and keep the Handle
//      (they are idempotent per name, so repeated lookups are merely slow,
//      not wrong).
//
// Naming scheme (docs/OBSERVABILITY.md): dot-separated lowercase
// `<layer>.<subsystem>.<what>[_<unit>]`, e.g. `net.sent.block_broadcast`,
// `crypto.sig_cache.hits`, `sim.phase.physics_calls`. Snapshots sort by
// name, so related metrics group naturally in every export.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nwade::util::telemetry {

/// Shard count for counter rows. Eight padded cells cover the pool sizes the
/// campaign engine uses (bench_campaign sweeps 1..8) without false sharing.
inline constexpr int kShards = 8;

namespace detail {

/// One cache-line-padded atomic accumulator cell.
struct alignas(64) ShardCell {
  std::atomic<std::int64_t> v{0};
};

/// A sharded 64-bit accumulator. Stable address (registry stores
/// unique_ptrs), so handles stay valid for the registry's lifetime.
struct ShardedCell {
  ShardCell shards[kShards];

  void add(std::int64_t delta);
  std::int64_t sum() const;
  void reset();
};

/// Round-robin shard index for the calling thread.
int this_thread_shard();

}  // namespace detail

/// Wait-free counter handle. Default-constructed handles are inert no-ops so
/// instrumented code never needs a null check.
class Counter {
 public:
  Counter() = default;
  void inc(std::int64_t delta = 1) {
    if (cell_ != nullptr) cell_->add(delta);
  }
  std::int64_t value() const { return cell_ != nullptr ? cell_->sum() : 0; }
  void reset() {
    if (cell_ != nullptr) cell_->reset();
  }
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::ShardedCell* cell) : cell_(cell) {}
  detail::ShardedCell* cell_{nullptr};
};

/// A gauge is a last-writer-wins level (queue depth, table size). Writes are
/// a single relaxed store — gauges are expected to be set from one logical
/// owner (a World's stepping thread), not summed across threads.
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void max_of(std::int64_t v) {
    if (cell_ == nullptr) return;
    std::int64_t cur = cell_->load(std::memory_order_relaxed);
    while (v > cur &&
           !cell_->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }
  void reset() { set(0); }
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_{nullptr};
};

/// Fixed upper bucket edges for a histogram, plus an implicit +inf overflow
/// bucket. Edges must be strictly increasing.
struct HistogramBuckets {
  std::vector<std::int64_t> upper_edges;

  /// 0,1,2,4,8,... doubling edges up to `max_edge` — the default shape for
  /// latency-in-ms histograms.
  static HistogramBuckets exponential_ms(std::int64_t max_edge = 4096);
};

namespace detail {
struct HistogramImpl {
  std::vector<std::int64_t> edges;          // sorted upper edges
  std::vector<ShardedCell> bucket_counts;   // edges.size() + 1 (overflow)
  ShardedCell count;
  ShardedCell sum;
};
}  // namespace detail

/// Wait-free histogram handle: records integer observations (latencies in
/// ms, sizes in bytes) into fixed buckets. Like Counter, sums are integers
/// and merge by addition, so snapshots are thread-schedule independent.
class Histogram {
 public:
  Histogram() = default;
  void observe(std::int64_t value);
  std::int64_t count() const;
  std::int64_t sum() const;
  void reset();
  bool valid() const { return impl_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramImpl* impl) : impl_(impl) {}
  detail::HistogramImpl* impl_{nullptr};
};

/// Point-in-time copy of every metric, name-sorted, with integer values
/// only. Two snapshots of identical runs compare byte-equal via json().
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  struct HistogramData {
    std::vector<std::int64_t> upper_edges;
    std::vector<std::int64_t> bucket_counts;  // edges + overflow
    std::int64_t count{0};
    std::int64_t sum{0};

    /// Upper bucket edge containing the `percent`-th percentile observation
    /// (rank = ceil(count * percent / 100), 1-based over the bucketed
    /// counts). Integer math only, so the summary is exactly as
    /// deterministic as the buckets it reads. Returns -1 for an empty
    /// histogram and for ranks landing in the +inf overflow bucket (the
    /// value is only known to exceed the last edge).
    std::int64_t quantile_upper_edge(int percent) const;
  };
  std::map<std::string, HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Field list (the checkpoint's telemetry section, RunSummary records).
  template <class Ar, class Self> static void io(Ar& ar, Self& s) {
    ar.counts(s.counters);
    ar.counts(s.gauges);
    ar.map(s.histograms, 28, [](auto& a, auto& name, auto& h) {
      a.str(name);
      a.i64s(h.upper_edges);
      a.i64s(h.bucket_counts);
      a.i64(h.count);
      a.i64(h.sum);
    });
  }
  /// Deterministic multi-line JSON (sorted keys, integer values, no floats).
  std::string json(const std::string& indent = "") const;
  /// Same content on one line — for embedding in row-per-line exports
  /// (campaign cell rows, JSONL).
  std::string json_compact() const;
  /// Merges `other` into this: counters/histograms add, gauges take the
  /// other's value when present (last writer wins, mirroring Gauge::set).
  void merge(const MetricsSnapshot& other);
  /// The change from `prev` to this snapshot, shaped so that
  /// `prev.merge(diff)` reproduces this snapshot exactly: counters and
  /// histogram buckets carry deltas, gauges carry their new value. Entries
  /// that did not change are omitted entirely — the property the streaming
  /// plane's small-frames claim rests on (docs/OBSERVABILITY.md). A
  /// histogram whose bucket shape changed (registry re-created across a
  /// restore) is carried whole.
  MetricsSnapshot diff(const MetricsSnapshot& prev) const;
};

/// A metrics registry. `process()` is the process-wide instance; Worlds own
/// their own so campaign cells stay isolated and deterministic.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& process();

  /// Finds or creates; stable handles for the registry's lifetime.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name, const HistogramBuckets& buckets);

  /// Point-in-time deterministic snapshot (merges all shards).
  MetricsSnapshot snapshot() const;
  /// Zeroes every metric; handles stay valid.
  void reset();
  /// Overwrites the registry with `snap`: every existing metric is zeroed,
  /// then each snapshot entry is re-created (if needed) and set to its
  /// recorded value, so `snapshot()` afterwards equals `snap` exactly.
  /// Existing handles stay valid — values land in shard 0, which sums the
  /// same. Used by checkpoint restore; not safe concurrently with writers.
  void restore(const MetricsSnapshot& snap);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::ShardedCell>> counters_;
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramImpl>> histograms_;
};

/// Folds the util/alloc_stats silo (NWADE_COUNT_ALLOCS builds) into `r` as
/// `process.alloc.*` gauges. No-op in builds without counting, so default
/// snapshots stay free of always-zero noise. NOTE: allocation counts depend
/// on thread placement, so fold these into process-level exports only, never
/// into per-cell campaign rows that must be pool-size independent.
void fold_alloc_stats(Registry& r);

}  // namespace nwade::util::telemetry
