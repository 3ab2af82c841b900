#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "bench.h"

namespace perfbench {

namespace tele = nwade::util::telemetry;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double total = 0;
  for (const double x : v) total += x;
  return total / static_cast<double>(v.size());
}

namespace {

/// Nearest-rank percentile (rank = ceil(n * p / 100)).
double percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = (n * static_cast<std::size_t>(p) + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return v[rank - 1];
}

}  // namespace

double tail(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 20) return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  int p = 99;
  while (p > 50 && n - (n * static_cast<std::size_t>(p) + 99) / 100 < 10) --p;
  return percentile(std::move(v), p);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const std::vector<std::string> kCheckpointSections = {
    "config", "time",   "metrics",   "network", "im",
    "vehicles", "legacy", "crypto", "telemetry", "grid"};

bool checkpoint_sections(std::span<const std::uint8_t> blob,
                         std::map<std::string, std::uint64_t>& out) {
  nwade::ByteReader r(blob);
  const std::string schema = r.str();
  const bool grid = schema == "nwade-grid-ckpt-v1";
  if (!r.ok() || (!grid && schema != "nwade-ckpt-v1")) return false;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    const std::string name = r.str();
    r.u32();  // crc32 of the payload
    const std::uint32_t size = r.u32();
    const auto payload = r.view(size);
    if (!r.ok()) return false;
    if (grid && name.starts_with("shard.")) {
      if (!checkpoint_sections(payload, out)) return false;
    } else {
      out[name] += size;
    }
  }
  return r.ok() && r.at_end();
}

void TimedSink::write(std::string_view frame) {
  const auto t0 = Clock::now();
  inner_.write(frame);
  const double us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  ++frames_;
  bytes_ += frame.size();
  write_us_ += us;
  if (spans_ != nullptr) {
    spans_->complete("svc", "sink_write", now_, now_, us, "bytes",
                     static_cast<std::int64_t>(frame.size()));
  }
}

void SpanTotals::add(const std::vector<nwade::util::trace::Event>& events) {
  // Every aim/process_window span encloses exactly one chain/package span,
  // recorded just before it (ImNode::publish_block runs inside the window);
  // any other package span was published outside a window.
  double pending_package = -1;
  const auto bucket = [](std::vector<double>& v, Tick ts, Duration width,
                         double ms) {
    const auto i = static_cast<std::size_t>(std::max<Tick>(0, ts - 1) / width);
    if (v.size() <= i) v.resize(i + 1, 0.0);
    v[i] += ms;
  };
  for (const auto& e : events) {
    if (e.phase != 'X' || e.wall_us < 0) continue;
    const double ms = e.wall_us / 1000.0;
    const std::string_view name = e.name;
    const std::string_view cat = e.cat;
    if (cat == "sim") {
      if (name == "phase.legacy") {
        legacy_ms += ms;
      } else if (name == "phase.physics") {
        physics_ms += ms;
      } else if (name == "phase.watch") {
        watch_ms += ms;
        bucket(watch_by_minute_ms, e.ts_ms, 60'000, ms);
      } else if (name == "phase.gap_audit") {
        gap_audit_ms += ms;
      } else if (name == "phase.events") {
        events_ms += ms;
      } else {
        continue;
      }
      bucket(busy_by_slice_ms, e.ts_ms, 1'000, ms);
    } else if (cat == "aim" && name == "process_window") {
      window_ms += ms;
      pending_package = -1;
    } else if (cat == "chain" && name == "package") {
      if (pending_package >= 0) package_direct_ms += pending_package;
      pending_package = ms;
      package_ms += ms;
      ++packages;
    } else if (cat == "chain" && name == "verify_block") {
      verify_ms += ms;
      ++verifies;
    }
  }
  if (pending_package >= 0) package_direct_ms += pending_package;
}

namespace {

std::atomic<long> g_marks{0};
std::atomic<const char*> g_where{"start"};
std::atomic<Tick> g_sim_t{0};
std::atomic<long> g_ops_started{0};

}  // namespace

void progress(const char* where, Tick sim_t) {
  g_where.store(where, std::memory_order_relaxed);
  g_sim_t.store(sim_t, std::memory_order_relaxed);
  g_marks.fetch_add(1, std::memory_order_release);
}

void ops_started(long n) { g_ops_started.fetch_add(n, std::memory_order_relaxed); }

Watchdog::Watchdog(const char* workload, double stall_s)
    : workload_(workload), stall_s_(stall_s), thread_([this] { watch(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void Watchdog::watch() {
  const auto poll = std::chrono::duration<double>(std::min(1.0, stall_s_ / 4));
  long seen = g_marks.load(std::memory_order_acquire);
  auto since = Clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  while (!wake_.wait_for(lock, poll, [this] { return stop_; })) {
    const long marks = g_marks.load(std::memory_order_acquire);
    if (marks != seen) {
      seen = marks;
      since = Clock::now();
      continue;
    }
    if (ms_since(since) < stall_s_ * 1000.0) continue;
    // The stalled call holds simulator threads that cannot be stopped from
    // here; report and end the process without unwinding them.
    const long ops = std::max(1L, g_ops_started.load());
    char why[256];
    std::snprintf(why, sizeof(why),
                  "%s: no progress for %.1f s in %s at sim t=%lld ms; a call "
                  "into the simulator did not return",
                  workload_, ms_since(since) / 1000.0, g_where.load(),
                  static_cast<long long>(g_sim_t.load()));
    std::fprintf(stderr, "nwade_perfbench: %s\n", why);
    std::printf("  FAILED %s\n{\"correct\": false, \"attempted\": %ld, "
                "\"failed\": %ld, \"metrics\": {}}\n",
                why, ops, ops);
    std::fflush(stdout);
    std::fflush(stderr);
    std::_Exit(0);
  }
}

namespace {

std::int64_t sum_counter(
    const std::vector<const tele::MetricsSnapshot*>& snaps,
    const std::string& name) {
  std::int64_t total = 0;
  for (const auto* s : snaps) {
    if (const auto it = s->counters.find(name); it != s->counters.end()) {
      total += it->second;
    }
  }
  return total;
}

std::int64_t sum_gauge(const std::vector<const tele::MetricsSnapshot*>& snaps,
                       const std::string& name) {
  std::int64_t total = 0;
  for (const auto* s : snaps) {
    if (const auto it = s->gauges.find(name); it != s->gauges.end()) {
      total += it->second;
    }
  }
  return total;
}

}  // namespace

void add_registry_layers(
    Result& r, const std::vector<const tele::MetricsSnapshot*>& snaps) {
  const auto count = [&r](const std::string& name, std::int64_t v) {
    r.layers.push_back({name, static_cast<double>(v), "count"});
  };
  count("nwade.verify_rounds", sum_gauge(snaps, "protocol.verify_rounds"));
  count("nwade.incident_reports",
        sum_gauge(snaps, "protocol.incident_reports"));
  count("nwade.evacuation_alerts",
        sum_gauge(snaps, "protocol.evacuation_alerts"));
  count("nwade.blocks_published",
        sum_gauge(snaps, "protocol.blocks_published"));
  count("net.packets.sent", sum_counter(snaps, "net.packets.sent"));
  count("net.packets.delivered", sum_counter(snaps, "net.packets.delivered"));
  r.layers.push_back({"net.bytes.sent",
                      static_cast<double>(sum_counter(snaps, "net.bytes.sent")),
                      "bytes"});
  for (const char* kind :
       {"plan_request", "block_broadcast", "block_request", "block_response",
        "incident_report", "verify_request", "verify_response",
        "alarm_dismiss", "evacuation_alert", "global_report",
        "blacklist_gossip"}) {
    count(std::string("net.packets_by_kind.") + kind,
          sum_counter(snaps, std::string("net.packets_by_kind.") + kind));
  }
  count("aim.windows", sum_counter(snaps, "aim.windows"));
  count("aim.plans_scheduled", sum_counter(snaps, "aim.plans_scheduled"));
  count("sim.steps", sum_counter(snaps, "sim.steps"));
  const std::int64_t hits = sum_gauge(snaps, "crypto.sig_cache.hits");
  const std::int64_t misses = sum_gauge(snaps, "crypto.sig_cache.misses");
  count("crypto.sig_cache.hits", hits);
  count("crypto.sig_cache.misses", misses);
  r.layers.push_back(
      {"crypto.sig_cache.hit_ratio",
       hits + misses > 0 ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0.0,
       "ratio"});
}

}  // namespace perfbench
