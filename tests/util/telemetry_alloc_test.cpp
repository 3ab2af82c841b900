// Allocation gates for the telemetry layer (ctest labels: alloc, obs).
//
// The observability contract (docs/OBSERVABILITY.md): metric writes through
// warmed handles never allocate, and a *disabled* tracer costs one check of
// its own flag with no heap traffic at all — so compiling telemetry into the
// hot paths cannot regress the zero-allocation gates of the crypto and
// stepping paths. Metered only in -DNWADE_COUNT_ALLOCS=ON builds; skipped
// (green) elsewhere.
#include <gtest/gtest.h>

#include "util/alloc_stats.h"
#include "util/log.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace nwade::util {
namespace {

#define REQUIRE_COUNTING()                                                 \
  if (!alloc_counting_enabled()) {                                         \
    GTEST_SKIP() << "build with -DNWADE_COUNT_ALLOCS=ON to arm this gate"; \
  }

TEST(TelemetryAllocGate, WarmedCounterAndGaugeWritesAreAllocationFree) {
  REQUIRE_COUNTING();
  telemetry::Registry r;
  telemetry::Counter c = r.counter("gate.counter");  // registration may alloc
  telemetry::Gauge g = r.gauge("gate.gauge");
  c.inc();  // warm-up
  g.set(1);

  const std::uint64_t before = thread_alloc_count();
  for (int i = 0; i < 1000; ++i) {
    c.inc();
    c.inc(3);
    g.set(i);
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

TEST(TelemetryAllocGate, WarmedHistogramObserveIsAllocationFree) {
  REQUIRE_COUNTING();
  telemetry::Registry r;
  telemetry::Histogram h =
      r.histogram("gate.hist", telemetry::HistogramBuckets::exponential_ms());
  h.observe(1);  // warm-up

  const std::uint64_t before = thread_alloc_count();
  for (int i = 0; i < 1000; ++i) h.observe(i % 5000);
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

TEST(TelemetryAllocGate, DisabledTracerPathIsAllocationFree) {
  REQUIRE_COUNTING();
  trace::Tracer t;
  ASSERT_FALSE(t.enabled());

  const std::uint64_t before = thread_alloc_count();
  for (int i = 0; i < 1000; ++i) {
    // The instrumented-site pattern: one check of the tracer's own flag,
    // then nothing.
    if (t.enabled()) {
      t.instant("gate", "never", i);
    }
    // Even an unguarded call on a disabled tracer must bail before the
    // event buffer is touched.
    t.instant("gate", "disabled", i, "i", i);
    t.complete("gate", "disabled_span", i, i + 1, 2.0, "i", i);
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

TEST(TelemetryAllocGate, InertDefaultHandlesAreAllocationFree) {
  REQUIRE_COUNTING();
  telemetry::Counter c;
  telemetry::Gauge g;
  telemetry::Histogram h;

  const std::uint64_t before = thread_alloc_count();
  for (int i = 0; i < 1000; ++i) {
    c.inc();
    g.set(i);
    h.observe(i);
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

TEST(TelemetryAllocGate, DisabledLogLineIsAllocationFree) {
  REQUIRE_COUNTING();
  log_config::set_level(LogLevel::kOff);

  const std::uint64_t before = thread_alloc_count();
  for (int i = 0; i < 1000; ++i) {
    NWADE_LOG(kDebug) << "vehicle " << i << " state " << 2.5;
  }
  EXPECT_EQ(thread_alloc_count() - before, 0u);
}

}  // namespace
}  // namespace nwade::util
