// util/telemetry coverage: handle semantics (incl. the inert default),
// histogram bucket-edge placement, snapshot JSON shape, merge and diff
// rules, and checkpoint restore into a live registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/support.h"
#include "util/telemetry.h"

namespace nwade::util::telemetry {
namespace {

TEST(Telemetry, DefaultHandlesAreInertNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(g.valid());
  EXPECT_FALSE(h.valid());
  c.inc();          // must not crash
  g.set(7);
  h.observe(3);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0);
}

TEST(Telemetry, CounterAccumulatesAndResets) {
  Registry r;
  Counter c = r.counter("t.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42);
  // Same name -> same cell.
  EXPECT_EQ(r.counter("t.counter").value(), 42);
}

TEST(Telemetry, GaugeIsLastWriterWinsAndMaxOfRatchets) {
  Registry r;
  Gauge g = r.gauge("t.gauge");
  g.set(10);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
}

TEST(Telemetry, ExponentialEdgesDoubleFromZero) {
  const HistogramBuckets b = HistogramBuckets::exponential_ms(8);
  EXPECT_EQ(b.upper_edges, (std::vector<std::int64_t>{0, 1, 2, 4, 8}));
}

TEST(Telemetry, HistogramPlacesObservationsOnBucketEdges) {
  Registry r;
  Histogram h = r.histogram("t.hist", HistogramBuckets::exponential_ms(8));
  // Edges 0,1,2,4,8 (+overflow). A value lands in the first bucket whose
  // upper edge is >= value; above the last edge it lands in overflow.
  h.observe(0);   // bucket 0 (edge 0)
  h.observe(1);   // bucket 1 (edge 1)
  h.observe(2);   // bucket 2 (edge 2)
  h.observe(3);   // bucket 3 (edge 4)
  h.observe(4);   // bucket 3 (edge 4)
  h.observe(5);   // bucket 4 (edge 8)
  h.observe(8);   // bucket 4 (edge 8)
  h.observe(9);   // overflow
  h.observe(1000);  // overflow
  EXPECT_EQ(h.count(), 9);
  EXPECT_EQ(h.sum(), 0 + 1 + 2 + 3 + 4 + 5 + 8 + 9 + 1000);
  const MetricsSnapshot snap = r.snapshot();
  const auto& data = snap.histograms.at("t.hist");
  EXPECT_EQ(data.bucket_counts,
            (std::vector<std::int64_t>{1, 1, 1, 2, 2, 2}));
  EXPECT_EQ(data.count, 9);
}

TEST(Telemetry, SnapshotJsonIsWellFormedAndSorted) {
  Registry r;
  r.counter("b.second").inc(2);
  r.counter("a.first").inc(1);
  r.gauge("z.gauge").set(-5);
  r.histogram("h.lat", HistogramBuckets::exponential_ms(4)).observe(3);
  const MetricsSnapshot snap = r.snapshot();
  const std::string pretty = snap.json();
  const std::string compact = snap.json_compact();
  EXPECT_TRUE(bench::json_well_formed(pretty)) << pretty;
  EXPECT_TRUE(bench::json_well_formed(compact)) << compact;
  // Sorted keys: "a.first" renders before "b.second".
  EXPECT_LT(compact.find("a.first"), compact.find("b.second"));
  EXPECT_NE(compact.find("\"z.gauge\": -5"), std::string::npos) << compact;
  // One line only.
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(Telemetry, MergeAddsCountersAndHistogramsGaugesLastWin) {
  Registry a;
  a.counter("c").inc(3);
  a.gauge("g").set(1);
  a.histogram("h", HistogramBuckets::exponential_ms(4)).observe(2);
  Registry b;
  b.counter("c").inc(4);
  b.counter("only_b").inc(1);
  b.gauge("g").set(9);
  b.histogram("h", HistogramBuckets::exponential_ms(4)).observe(2);

  MetricsSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("c"), 7);
  EXPECT_EQ(merged.counters.at("only_b"), 1);
  EXPECT_EQ(merged.gauges.at("g"), 9);
  EXPECT_EQ(merged.histograms.at("h").count, 2);
  EXPECT_EQ(merged.histograms.at("h").sum, 4);
}

TEST(Telemetry, QuantileUpperEdgeUsesIntegerRanks) {
  Registry r;
  Histogram h = r.histogram("lat", HistogramBuckets{{0, 1, 2, 4, 8}});
  // Empty histogram: no rank exists.
  EXPECT_EQ(r.snapshot().histograms.at("lat").quantile_upper_edge(50), -1);

  // 10 observations: 5 land in the <=1 bucket, 4 in <=4, 1 overflows.
  for (int i = 0; i < 5; ++i) h.observe(1);
  for (int i = 0; i < 4; ++i) h.observe(3);
  h.observe(100);
  const MetricsSnapshot::HistogramData d = r.snapshot().histograms.at("lat");
  // rank(p50) = ceil(10 * 50 / 100) = 5 -> still inside the <=1 bucket.
  EXPECT_EQ(d.quantile_upper_edge(50), 1);
  // rank(p90) = 9 -> the <=4 bucket.
  EXPECT_EQ(d.quantile_upper_edge(90), 4);
  // rank(p99) = 10 -> the overflow bucket: only ">last edge" is known.
  EXPECT_EQ(d.quantile_upper_edge(99), -1);
  EXPECT_EQ(d.quantile_upper_edge(100), -1);
  EXPECT_EQ(d.quantile_upper_edge(1), 1);
}

TEST(Telemetry, JsonCarriesQuantileRows) {
  Registry r;
  Histogram h = r.histogram("lat", HistogramBuckets::exponential_ms(16));
  for (int i = 0; i < 100; ++i) h.observe(i % 10);
  const MetricsSnapshot snap = r.snapshot();
  for (const std::string& json : {snap.json(), snap.json_compact()}) {
    EXPECT_NE(json.find("\"p50\": "), std::string::npos) << json;
    EXPECT_NE(json.find("\"p90\": "), std::string::npos) << json;
    EXPECT_NE(json.find("\"p99\": "), std::string::npos) << json;
    EXPECT_TRUE(nwade::bench::json_well_formed(json)) << json;
  }
}

TEST(Telemetry, DiffOmitsUnchangedAndMergeReproduces) {
  Registry r;
  Counter a = r.counter("a");
  Counter b = r.counter("b");
  Gauge g = r.gauge("g");
  Histogram h = r.histogram("h", HistogramBuckets{{1, 2}});
  a.inc(5);
  g.set(3);
  h.observe(1);
  MetricsSnapshot before = r.snapshot();

  a.inc(2);
  b.inc(4);
  g.set(9);
  h.observe(2);
  Gauge g2 = r.gauge("g2");
  g2.set(1);
  const MetricsSnapshot after = r.snapshot();

  const MetricsSnapshot delta = after.diff(before);
  // Changed and newly-registered entries are present; counters as deltas.
  EXPECT_EQ(delta.counters.at("a"), 2);
  EXPECT_EQ(delta.counters.at("b"), 4);
  EXPECT_EQ(delta.gauges.at("g"), 9);  // gauges carry the new value
  EXPECT_EQ(delta.gauges.at("g2"), 1);
  EXPECT_EQ(delta.histograms.at("h").count, 1);
  EXPECT_EQ(delta.histograms.at("h").sum, 2);

  // The defining property: prev.merge(diff) reproduces the later snapshot.
  before.merge(delta);
  EXPECT_EQ(before.json(), after.json());
}

TEST(Telemetry, DiffAgainstSelfIsEmptyAndFoldOfDiffsReconstructs) {
  Registry r;
  Counter c = r.counter("c");
  Histogram h = r.histogram("h", HistogramBuckets{{1, 2, 4}});
  Gauge g = r.gauge("g");

  MetricsSnapshot acc;  // receiver-side fold, starts empty
  MetricsSnapshot prev;
  for (int round = 0; round < 5; ++round) {
    c.inc(round);  // round 0 adds nothing: the delta must still carry the key
    if (round % 2 == 0) g.set(round);
    h.observe(round);
    const MetricsSnapshot snap = r.snapshot();
    const MetricsSnapshot delta = snap.diff(prev);
    acc.merge(delta);
    prev = snap;
  }
  EXPECT_EQ(acc.json(), r.snapshot().json());
  // No change between snapshots -> a fully empty delta.
  EXPECT_TRUE(r.snapshot().diff(prev).empty());
}

TEST(Telemetry, DiffCarriesReshapedHistogramsWhole) {
  Registry r1;
  r1.histogram("h", HistogramBuckets{{1, 2}}).observe(1);
  Registry r2;
  r2.histogram("h", HistogramBuckets{{1, 2, 4}}).observe(3);
  const MetricsSnapshot prev = r1.snapshot();
  const MetricsSnapshot cur = r2.snapshot();
  const MetricsSnapshot delta = cur.diff(prev);
  // Shape changed (registry re-created differently): carried whole, not as
  // a bucket-wise delta that no receiver could apply.
  EXPECT_EQ(delta.histograms.at("h").upper_edges,
            (std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_EQ(delta.histograms.at("h").count, 1);
}

TEST(Telemetry, RestoreOverwritesValuesAndKeepsHandlesCounting) {
  Registry r;
  Counter c = r.counter("c");
  Counter stale = r.counter("stale");
  Gauge g = r.gauge("g");
  Histogram short_row = r.histogram("short", HistogramBuckets{{1, 2, 4}});
  Histogram long_row = r.histogram("long", HistogramBuckets{{1, 2}});
  c.inc(5);
  stale.inc(7);
  g.set(5);
  short_row.observe(1);
  long_row.observe(9);

  MetricsSnapshot snap;
  snap.counters["c"] = 40;
  snap.gauges["g"] = -3;
  // Bucket rows one entry short of and one entry past edges + 1, as a
  // damaged checkpoint could carry them.
  snap.histograms["short"] = {{1, 2, 4}, {1, 2, 3}, 6, 9};
  snap.histograms["long"] = {{1, 2}, {4, 5, 6, 7}, 22, 30};
  r.restore(snap);

  EXPECT_EQ(c.value(), 40);  // overwritten, not added
  EXPECT_EQ(stale.value(), 0);  // missing from the snapshot
  EXPECT_EQ(g.value(), -3);
  const MetricsSnapshot restored = r.snapshot();
  EXPECT_EQ(restored.counters.at("stale"), 0);
  EXPECT_EQ(restored.histograms.at("short").bucket_counts,
            (std::vector<std::int64_t>{1, 2, 3, 0}));
  EXPECT_EQ(restored.histograms.at("long").bucket_counts,
            (std::vector<std::int64_t>{4, 5, 6}));

  // Handles taken before the restore keep counting from the restored
  // values; a value past the last edge lands in the overflow bucket.
  c.inc();
  stale.inc(2);
  g.set(8);
  short_row.observe(100);
  long_row.observe(100);
  const MetricsSnapshot later = r.snapshot();
  EXPECT_EQ(later.counters.at("c"), 41);
  EXPECT_EQ(later.counters.at("stale"), 2);
  EXPECT_EQ(later.gauges.at("g"), 8);
  EXPECT_EQ(later.histograms.at("short").bucket_counts,
            (std::vector<std::int64_t>{1, 2, 3, 1}));
  EXPECT_EQ(later.histograms.at("short").count, 7);
  EXPECT_EQ(later.histograms.at("short").sum, 109);
  EXPECT_EQ(later.histograms.at("long").bucket_counts,
            (std::vector<std::int64_t>{4, 5, 7}));
  EXPECT_EQ(later.histograms.at("long").count, 23);
}

}  // namespace
}  // namespace nwade::util::telemetry
