// Unified metrics registry: counters, gauges, and fixed-bucket histograms
// with a single deterministic snapshot/export path.
//
// Design rules, in the order they were chosen:
//
//   1. Determinism first. Every metric value is a 64-bit integer, so every
//      fold of snapshots (campaign merges, grid totals, stream deltas) is
//      exact integer addition. (Floating-point sums would depend on merge
//      order.) Derived ratios like cache hit rate are computed by consumers
//      from the raw integer parts.
//   2. One owner. A registry is written only by the thread stepping the
//      World that owns it; every World, Grid shard and campaign cell has its
//      own. Metrics are therefore plain integers with no lock and no
//      atomics, and a registry shared between threads is a data race that
//      the TSan job reports.
//   3. Registration is slow-path. counter()/gauge()/histogram() may
//      allocate; call them once at setup and keep the handle (they are
//      idempotent per name, so repeated lookups are merely slow, not
//      wrong). A handle is a pointer into the registry's maps, so a write
//      is one add or store with no lookup and no allocation.
//
// Naming scheme (docs/OBSERVABILITY.md): dot-separated lowercase
// `<layer>.<subsystem>.<what>[_<unit>]`, e.g. `net.sent.block_broadcast`,
// `crypto.sig_cache.hits`, `sim.phase.physics_calls`. Snapshots sort by
// name, so related metrics group naturally in every export.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nwade::util::telemetry {

/// Fixed upper bucket edges for a histogram, plus an implicit +inf overflow
/// bucket. Edges must be strictly increasing.
struct HistogramBuckets {
  std::vector<std::int64_t> upper_edges;

  /// 0,1,2,4,8,... doubling edges up to `max_edge` — the default shape for
  /// latency-in-ms histograms.
  static HistogramBuckets exponential_ms(std::int64_t max_edge = 4096);
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

/// Counter handle. Default-constructed handles are inert no-ops so
/// instrumented code never needs a null check.
class Counter {
 public:
  Counter() = default;
  void inc(std::int64_t delta = 1) {
    if (value_ != nullptr) *value_ += delta;
  }
  std::int64_t value() const { return value_ != nullptr ? *value_ : 0; }
  bool valid() const { return value_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(std::int64_t* value) : value_(value) {}
  std::int64_t* value_{nullptr};
};

/// A gauge is a last-writer-wins level (queue depth, table size).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) {
    if (value_ != nullptr) *value_ = v;
  }
  std::int64_t value() const { return value_ != nullptr ? *value_ : 0; }
  bool valid() const { return value_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(std::int64_t* value) : value_(value) {}
  std::int64_t* value_{nullptr};
};

/// Histogram handle: records integer observations (latencies in ms, sizes
/// in bytes) into fixed buckets.
class Histogram {
 public:
  Histogram() = default;
  void observe(std::int64_t value);
  std::int64_t count() const { return data_ != nullptr ? data_->count : 0; }
  std::int64_t sum() const { return data_ != nullptr ? data_->sum : 0; }
  bool valid() const { return data_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(MetricsSnapshot::HistogramData* data) : data_(data) {}
  MetricsSnapshot::HistogramData* data_{nullptr};
};

/// A World's metrics registry: one MetricsSnapshot, written in place
/// through the handles it hands out.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates. Handles stay valid for the registry's lifetime:
  /// std::map nodes never move.
  Counter counter(const std::string& name) {
    return Counter(&data_.counters[name]);
  }
  Gauge gauge(const std::string& name) { return Gauge(&data_.gauges[name]); }
  /// A histogram keeps the buckets it was first registered with.
  Histogram histogram(const std::string& name, const HistogramBuckets& buckets);

  MetricsSnapshot snapshot() const { return data_; }
  /// Overwrites the registry with `snap`: every existing metric is zeroed,
  /// then each snapshot entry is created (if needed) and set to its
  /// recorded value, so a metric missing from `snap` reads 0. Existing
  /// handles stay valid. Used by checkpoint restore.
  void restore(const MetricsSnapshot& snap);

 private:
  MetricsSnapshot data_;
};

}  // namespace nwade::util::telemetry
