#include "util/telemetry.h"

#include <algorithm>

#include "util/json.h"

namespace nwade::util::telemetry {

HistogramBuckets HistogramBuckets::exponential_ms(std::int64_t max_edge) {
  HistogramBuckets b;
  b.upper_edges.push_back(0);
  for (std::int64_t edge = 1; edge <= max_edge; edge *= 2) {
    b.upper_edges.push_back(edge);
  }
  return b;
}

void Histogram::observe(std::int64_t value) {
  if (data_ == nullptr) return;
  // First bucket whose upper edge >= value; past the last edge -> overflow.
  const auto& edges = data_->upper_edges;
  const auto bucket = std::lower_bound(edges.begin(), edges.end(), value);
  ++data_->bucket_counts[static_cast<std::size_t>(bucket - edges.begin())];
  ++data_->count;
  data_->sum += value;
}

Histogram Registry::histogram(const std::string& name,
                              const HistogramBuckets& buckets) {
  const auto [it, inserted] = data_.histograms.try_emplace(name);
  if (inserted) {
    it->second.upper_edges = buckets.upper_edges;
    it->second.bucket_counts.assign(buckets.upper_edges.size() + 1, 0);
  }
  return Histogram(&it->second);
}

void Registry::restore(const MetricsSnapshot& snap) {
  for (auto& [name, v] : data_.counters) v = 0;
  for (auto& [name, v] : data_.gauges) v = 0;
  for (auto& [name, h] : data_.histograms) {
    std::fill(h.bucket_counts.begin(), h.bucket_counts.end(), 0);
    h.count = 0;
    h.sum = 0;
  }
  for (const auto& [name, v] : snap.counters) data_.counters[name] = v;
  for (const auto& [name, v] : snap.gauges) data_.gauges[name] = v;
  for (const auto& [name, in] : snap.histograms) {
    MetricsSnapshot::HistogramData& h = data_.histograms[name];
    // `snap` may come from a checkpoint file: size the bucket row from the
    // edges, never from the input's row, so observe() cannot index past its
    // end when the two disagree.
    h.upper_edges = in.upper_edges;
    h.bucket_counts.assign(in.upper_edges.size() + 1, 0);
    std::copy_n(in.bucket_counts.begin(),
                std::min(h.bucket_counts.size(), in.bucket_counts.size()),
                h.bucket_counts.begin());
    h.count = in.count;
    h.sum = in.sum;
  }
}

std::int64_t MetricsSnapshot::HistogramData::quantile_upper_edge(
    int percent) const {
  // Total of the bucketed counts (defensive: trust the buckets over `count`
  // after a shape-mismatched merge folded scalar totals without buckets).
  std::int64_t total = 0;
  for (const std::int64_t c : bucket_counts) total += c;
  if (total <= 0 || percent <= 0) return -1;
  // 1-based rank of the requested percentile, ceil'd so p99 of 100
  // observations is the 99th, not the 98.01st truncated to the 98th.
  const std::int64_t rank =
      (total * static_cast<std::int64_t>(percent) + 99) / 100;
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    seen += bucket_counts[i];
    if (seen >= rank) {
      // Past the last edge lies the +inf overflow bucket: the percentile is
      // only known to exceed the largest finite edge.
      return i < upper_edges.size() ? upper_edges[i] : -1;
    }
  }
  return -1;
}

namespace {

using json::append_int;
using json::append_string;

void append_int_array(std::string& out, const std::vector<std::int64_t>& xs) {
  out += "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ", ";
    append_int(out, xs[i]);
  }
  out += "]";
}

void append_histogram(std::string& o,
                      const MetricsSnapshot::HistogramData& h) {
  o += "{\"upper_edges\": ";
  append_int_array(o, h.upper_edges);
  o += ", \"bucket_counts\": ";
  append_int_array(o, h.bucket_counts);
  o += ", \"count\": ";
  append_int(o, h.count);
  o += ", \"sum\": ";
  append_int(o, h.sum);
  // Integer-math percentile summary rows (bucket upper edges, -1 = empty or
  // overflow) so latency histograms read directly in frames and reports.
  o += ", \"p50\": ";
  append_int(o, h.quantile_upper_edge(50));
  o += ", \"p90\": ";
  append_int(o, h.quantile_upper_edge(90));
  o += ", \"p99\": ";
  append_int(o, h.quantile_upper_edge(99));
  o += "}";
}

template <typename Map, typename AppendValue>
void append_section(std::string& out, const char* title, const Map& map,
                    const std::string& pad, AppendValue&& append_value) {
  out += pad;
  append_string(out, title);
  out += ": {";
  bool first = true;
  for (const auto& [name, value] : map) {
    out += first ? "\n" : ",\n";
    first = false;
    out += pad + "  ";
    append_string(out, name);
    out += ": ";
    append_value(out, value);
  }
  if (!first) out += "\n" + pad;
  out += "}";
}

}  // namespace

std::string MetricsSnapshot::json(const std::string& indent) const {
  const std::string& pad = indent;
  std::string out = "{\n";
  append_section(out, "counters", counters, pad + "  ",
                 [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ",\n";
  append_section(out, "gauges", gauges, pad + "  ",
                 [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ",\n";
  append_section(out, "histograms", histograms, pad + "  ",
                 [](std::string& o, const HistogramData& h) {
                   append_histogram(o, h);
                 });
  out += "\n" + pad + "}";
  return out;
}

std::string MetricsSnapshot::json_compact() const {
  const auto append_compact_section = [](std::string& out, const char* title,
                                         const auto& map, auto&& append_value) {
    append_string(out, title);
    out += ": {";
    bool first = true;
    for (const auto& [name, value] : map) {
      if (!first) out += ", ";
      first = false;
      append_string(out, name);
      out += ": ";
      append_value(out, value);
    }
    out += "}";
  };
  std::string out = "{";
  append_compact_section(out, "counters", counters,
                         [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ", ";
  append_compact_section(out, "gauges", gauges,
                         [](std::string& o, std::int64_t v) { append_int(o, v); });
  out += ", ";
  append_compact_section(out, "histograms", histograms,
                         [](std::string& o, const HistogramData& h) {
                           append_histogram(o, h);
                         });
  out += "}";
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] = v;
  for (const auto& [name, h] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = h;
      continue;
    }
    HistogramData& mine = it->second;
    if (mine.upper_edges != h.upper_edges) {
      // Incompatible shapes: keep ours, still fold the scalar totals so no
      // observation silently disappears.
      mine.count += h.count;
      mine.sum += h.sum;
      continue;
    }
    for (std::size_t i = 0; i < mine.bucket_counts.size() &&
                            i < h.bucket_counts.size();
         ++i) {
      mine.bucket_counts[i] += h.bucket_counts[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& prev) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    const auto it = prev.counters.find(name);
    // A name the receiver has never seen is a change even at value 0 —
    // merge must reproduce this snapshot key-for-key, not just value-wise.
    if (it == prev.counters.end() || it->second != v) {
      d.counters[name] = v - (it != prev.counters.end() ? it->second : 0);
    }
  }
  for (const auto& [name, v] : gauges) {
    const auto it = prev.gauges.find(name);
    // A gauge that was never seen before is a change even at value 0: the
    // receiver must learn the name exists (merge is last-writer-wins, so the
    // absolute value rides along unchanged).
    if (it == prev.gauges.end() || it->second != v) d.gauges[name] = v;
  }
  for (const auto& [name, h] : histograms) {
    const auto it = prev.histograms.find(name);
    if (it == prev.histograms.end() || it->second.upper_edges != h.upper_edges) {
      // New histogram, or a shape change (possible across a registry
      // restore): a bucket-wise delta is meaningless, carry it whole.
      d.histograms[name] = h;
      continue;
    }
    const HistogramData& base = it->second;
    if (h.count == base.count && h.sum == base.sum &&
        h.bucket_counts == base.bucket_counts) {
      continue;
    }
    HistogramData delta;
    delta.upper_edges = h.upper_edges;
    delta.bucket_counts.resize(h.bucket_counts.size(), 0);
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      const std::int64_t b =
          i < base.bucket_counts.size() ? base.bucket_counts[i] : 0;
      delta.bucket_counts[i] = h.bucket_counts[i] - b;
    }
    delta.count = h.count - base.count;
    delta.sum = h.sum - base.sum;
    d.histograms[name] = std::move(delta);
  }
  return d;
}

}  // namespace nwade::util::telemetry
