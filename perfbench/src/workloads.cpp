// The three workloads (README.md has the why of each). All three run flat
// out as closed loops on 4 threads with the protocol on and RSA-2048.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "nwade/config.h"
#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/grid.h"
#include "sim/world.h"
#include "svc/streamer.h"
#include "util/rng.h"
#include "util/wall_clock.h"

namespace perfbench {
namespace {

using namespace nwade;
namespace trace = nwade::util::trace;
using trace::Event;
using Snapshot = util::telemetry::MetricsSnapshot;

constexpr int kThreads = 4;
constexpr Duration kSliceMs = 1'000;

Duration sim_duration(const Options& opt, Duration own) {
  return opt.sim_seconds > 0 ? opt.sim_seconds * 1000 : own;
}

/// The paper's attack trigger (40 s); a shortened smoke run attacks at a
/// third of its length so detection still happens inside it.
Tick attack_time(const Options& opt, Duration duration) {
  return opt.sim_seconds > 0 ? duration / 3 : 40'000;
}

sim::ScenarioConfig base_scenario(const Options& opt, Duration duration,
                                  double vpm, bool traced) {
  sim::ScenarioConfig c;
  c.vehicles_per_minute = vpm;
  c.duration_ms = duration;
  c.seed = opt.scenario_seed;
  c.signer = sim::SignerKind::kRsa2048;
  c.attack = protocol::attack_setting_by_name("V1");
  c.attack_time = attack_time(opt, duration);
  c.step_threads = kThreads;
  c.trace_enabled = traced;
  return c;
}

double span_us(Clock::time_point t0) { return ms_since(t0) * 1000.0; }
double sum(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return total;
}
double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// Runs `rep` back to back until the time budget is spent: a repetition
/// starts only while the previous one would still fit; always at least one.
template <typename F>
void timed_reps(double seconds, F&& rep) {
  const auto t0 = Clock::now();
  double last_ms = 0;
  do {
    const auto r0 = Clock::now();
    rep();
    last_ms = ms_since(r0);
  } while (ms_since(t0) + last_ms <= seconds * 1000.0);
}

void write_trace(const Options& opt, const std::vector<std::vector<Event>>& streams,
                 const std::vector<std::string>& names, Result& r) {
  if (opt.trace_out.empty()) return;
  progress("writing the trace");
  const std::string json = trace::chrome_trace_json(streams, names);
  std::FILE* f = std::fopen(opt.trace_out.c_str(), "wb");
  const bool ok = f != nullptr &&
                  std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (f != nullptr) std::fclose(f);
  if (!ok) r.failures.push_back("cannot write trace " + opt.trace_out);
}

void require(bool cond, const char* what, std::string& why) {
  if (!cond) why += std::string(" ") + what + ";";
}

/// Times RsaSigner::generate exactly as World's constructor calls it.
double keygen_ms(std::uint64_t seed, trace::Tracer& spans) {
  const auto t0 = Clock::now();
  Rng rng(seed);
  const auto signer = crypto::RsaSigner::generate(rng, 2048);
  spans.complete("bench", "keygen", 0, 0, span_us(t0));
  return ms_since(t0);
}

/// Times World::arrival_count, the construction-time arrival draw.
double arrivals_ms(const sim::ScenarioConfig& cfg, trace::Tracer& spans,
                   double& arrivals) {
  const auto t0 = Clock::now();
  const std::size_t n = sim::World::arrival_count(cfg);
  spans.complete("bench", "arrivals", 0, 0, span_us(t0), "arrivals",
                 static_cast<std::int64_t>(n));
  arrivals += static_cast<double>(n);
  return ms_since(t0);
}

/// Restores `blob` and saves it again; the bytes must not change.
template <typename Restore>
bool restore_resaves(const Bytes& blob, trace::Tracer& spans, Tick t,
                     double& restore_ms, Restore&& restore) {
  progress("checkpoint restore", t);
  const auto t0 = Clock::now();
  const auto restored = restore(blob);
  restore_ms = ms_since(t0);
  spans.complete("bench", "checkpoint_restore", t, t, span_us(t0));
  return restored != nullptr && restored->checkpoint_save() == blob;
}

// --- a streamed source: World or Grid, as examples/serve drives it ---------

/// A World or Grid with a TelemetryStreamer feeding a RingSink at a 1 s
/// cadence. Constructing one is what setup_s times. The traced variant
/// routes frames through a TimedSink and leaves the source's trace events
/// in place (emit_trace off: the streamer would otherwise drain the phase
/// spans along with the detection timeline it forwards).
template <typename Source, typename Config>
struct Streamed {
  Streamed(const Config& cfg, bool traced, trace::Tracer* spans)
      : timed(ring, spans),
        source(std::make_unique<Source>(cfg)),
        streamer(std::make_unique<svc::TelemetryStreamer>(
            svc::StreamerConfig{kSliceMs, true, true, !traced, true, &wall})) {
    streamer->add_sink(traced ? static_cast<svc::StreamSink*>(&timed) : &ring);
    attached = streamer->attach(*source);
  }

  util::SystemWallClock wall;
  svc::RingSink ring;
  TimedSink timed;
  std::unique_ptr<Source> source;
  // Declared after the source: the streamer detaches from it on destruction.
  std::unique_ptr<svc::TelemetryStreamer> streamer;
  bool attached{false};
};

/// Times `count` back-to-back constructions, in seconds. RSA-2048 key
/// generation dominates them and is noisy on a shared host, so setup_s is
/// a median over several.
template <typename Source, typename Config>
void setup_samples(const Config& cfg, int count, std::vector<double>& out) {
  for (int k = 0; k < count; ++k) {
    progress("set-up sample");
    const auto t0 = Clock::now();
    Streamed<Source, Config> s(cfg, false, nullptr);
    out.push_back(ms_since(t0) / 1000.0);
  }
}

/// What one repetition of a streamed workload produced.
struct Rep {
  double setup_s{0};
  std::vector<double> slice_ms;
  double wall_ms{0};  ///< every slice plus the streamer's closing frames
  std::vector<double> save_ms;
  Bytes last_blob;
  std::uint64_t frames{0};
  std::uint64_t stream_bytes{0};
  double sink_ms{0};
  // Read off the source after the run:
  std::string digest;
  std::string why;  ///< failed checks
  double throughput_vpm{0};
  std::optional<Duration> detect_ms;  ///< the world, or grid shard 0
  std::vector<Snapshot> snapshots;  ///< per world (the world or each shard)
  double live_vehicles{0};
  double handoffs{0};
  double gossip_sent{0};
  double gossip_dropped{0};
  std::vector<std::vector<Event>> events;  ///< per world, traced only
  std::vector<sim::ScenarioConfig> world_configs;
};

/// Reads digest, checks and outputs off a finished source.
void read_source(sim::World& w, svc::TelemetryStreamer& st, bool traced,
                 Rep& rep) {
  const sim::RunSummary s = w.summary();
  rep.digest = sim::checkpoint::run_summary_digest(s);
  require(st.cumulative().json() == s.metrics_snapshot.json(),
          "stream total differs from end-of-run snapshot", rep.why);
  rep.detect_ms = s.metrics.deviation_detection_time();
  rep.throughput_vpm = s.throughput_vpm;
  rep.snapshots = {s.metrics_snapshot};
  rep.live_vehicles = s.active_at_end;
  rep.world_configs = {w.config()};
  if (traced) rep.events = {w.take_trace()};
}

void read_source(sim::Grid& g, svc::TelemetryStreamer& st, bool traced,
                 Rep& rep) {
  const sim::GridSummary s = g.summary();
  rep.digest = sim::Grid::summary_digest(s);
  require(st.cumulative().json() == g.merged_metrics().json(),
          "stream total differs from merged shard metrics", rep.why);
  rep.detect_ms = s.shards.at(0).metrics.deviation_detection_time();
  rep.throughput_vpm = s.aggregate_throughput_vpm;
  for (const sim::RunSummary& shard : s.shards) {
    rep.snapshots.push_back(shard.metrics_snapshot);
    rep.live_vehicles += shard.active_at_end;
  }
  rep.handoffs = static_cast<double>(s.handoffs_delivered);
  rep.gossip_sent = static_cast<double>(s.gossip_sent);
  rep.gossip_dropped = static_cast<double>(s.gossip_dropped);
  for (int i = 0; i < g.shard_count(); ++i) {
    sim::World& w = g.shard(i / g.cols(), i % g.cols());
    rep.world_configs.push_back(w.config());
    if (traced) rep.events.push_back(w.take_trace());
  }
}

/// One repetition: steps the source in 1 s slices to `end`, saving a
/// checkpoint every `snapshot_every` ms before the end (serve's --state
/// cadence) and/or at the end itself.
template <typename Source, typename Config>
Rep stream_rep(const Config& cfg, bool traced, Tick end,
               Duration snapshot_every, bool snapshot_at_end,
               trace::Tracer& spans) {
  Rep out;
  const char* const where = traced ? "traced repetition" : "timed repetition";
  progress(where);
  ops_started(static_cast<long>(end / kSliceMs));
  const auto c0 = Clock::now();
  Streamed<Source, Config> s(cfg, traced, traced ? &spans : nullptr);
  out.setup_s = ms_since(c0) / 1000.0;
  if (traced) spans.complete("bench", "construct", 0, 0, out.setup_s * 1e6);
  require(s.attached, "streamer rejected the cadence", out.why);
  out.slice_ms.reserve(static_cast<std::size_t>(end / kSliceMs));
  const auto w0 = Clock::now();
  for (Tick t = kSliceMs; t <= end; t += kSliceMs) {
    progress(where, t);
    const auto s0 = Clock::now();
    s.timed.set_now(t);
    s.source->run_until(t);
    if ((snapshot_every > 0 && t < end && t % snapshot_every == 0) ||
        (snapshot_at_end && t == end)) {
      const auto k0 = Clock::now();
      out.last_blob = s.source->checkpoint_save();
      out.save_ms.push_back(ms_since(k0));
      if (traced) {
        spans.complete("bench", "checkpoint_save", t, t, span_us(k0), "bytes",
                       static_cast<std::int64_t>(out.last_blob.size()));
      }
    }
    out.slice_ms.push_back(ms_since(s0));
    if (traced) spans.complete("bench", "slice", t - kSliceMs, t, span_us(s0));
  }
  progress(where, end);
  s.streamer->finish();
  out.wall_ms = ms_since(w0);
  require(!out.last_blob.empty(), "no checkpoint taken", out.why);
  out.frames = s.timed.frames();
  out.stream_bytes = s.timed.bytes();
  out.sink_ms = s.timed.write_ms();
  read_source(*s.source, *s.streamer, traced, out);
  return out;
}

/// Counts `ops` for one repetition, failed unless every check passed and
/// its digest matches the traced repetition's.
void settle(Result& r, const char* label, long ops, const std::string& why,
            const std::string& digest, const std::string& reference) {
  r.ops += ops;
  std::string all = why;
  if (digest != reference) all += " digest differs from the traced run;";
  if (all.empty()) return;
  r.ops_failed += ops;
  r.failures.push_back(std::string(label) + ":" + all);
}

/// Layer metrics whose inputs every workload has in the same shape.
struct LayerInputs {
  SpanTotals spans;                  ///< summed over every world
  std::vector<double> unit_busy_ms;  ///< per shard / cell / the one world
  double traced_wall_ms{0};          ///< the traced repetition's timed work
  double unattributed_ms{0};
  double minute_first_ms{0};
  double minute_last_ms{0};
  double live_vehicles{0};
  double keygen_ms{0};
  double arrivals_ms{0};
  double arrivals{0};
  std::vector<double> save_ms;
  double restore_ms{0};
  std::map<std::string, std::uint64_t> sections;
  std::uint64_t frames{0};
  std::uint64_t stream_bytes{0};
  double sink_ms{0};
  double handoffs{0};
  double gossip_sent{0};
  double gossip_dropped{0};
  double overhead_pct{0};
};

void add_layers(Result& r, const LayerInputs& in,
                const std::vector<const Snapshot*>& snaps) {
  const auto ms = [&r](const char* name, double v) {
    r.layers.push_back({name, v, "ms"});
  };
  const auto count = [&r](const char* name, double v) {
    r.layers.push_back({name, v, "count"});
  };
  const SpanTotals& s = in.spans;
  const auto& by_min = s.watch_by_minute_ms;
  ms("nwade.watch_ms", s.watch_ms);
  ms("nwade.watch_ms.first_min", by_min.empty() ? 0 : by_min.front());
  ms("nwade.watch_ms.last_min", by_min.empty() ? 0 : by_min.back());
  ms("net.events_self_ms", s.events_self_ms());
  ms("sim.physics_ms", s.physics_ms);
  ms("sim.gap_audit_ms", s.gap_audit_ms);
  ms("sim.unattributed_ms", in.unattributed_ms);
  ms("sim.minute_ms.first", in.minute_first_ms);
  ms("sim.minute_ms.last", in.minute_last_ms);
  count("sim.live_vehicles", in.live_vehicles);
  ms("aim.process_window_ms", s.window_ms);
  ms("chain.package_ms", s.package_ms);
  count("chain.package_count", static_cast<double>(s.packages));
  ms("chain.verify_block_ms", s.verify_ms);
  count("chain.verify_block_count", static_cast<double>(s.verifies));
  ms("crypto.keygen_ms", in.keygen_ms);
  ms("traffic.arrivals_ms", in.arrivals_ms);
  count("traffic.arrivals", in.arrivals);
  ms("ckpt.save_ms.p50", median(in.save_ms));
  ms("ckpt.save_ms.max", max_of(in.save_ms));
  ms("ckpt.restore_ms", in.restore_ms);
  for (const std::string& name : kCheckpointSections) {
    const auto it = in.sections.find(name);
    r.layers.push_back({"ckpt.section." + name + "_bytes",
                        it == in.sections.end() ? 0.0
                                                : static_cast<double>(it->second),
                        "bytes"});
  }
  count("svc.frames", static_cast<double>(in.frames));
  r.layers.push_back({"svc.bytes", static_cast<double>(in.stream_bytes), "bytes"});
  ms("svc.sink_write_ms", in.sink_ms);
  const double busy_max = max_of(in.unit_busy_ms);
  const double busy_mean = mean(in.unit_busy_ms);
  ms("grid.shard_busy_ms.max", busy_max);
  ms("grid.shard_busy_ms.mean", busy_mean);
  r.layers.push_back(
      {"grid.imbalance_x", busy_mean > 0 ? busy_max / busy_mean : 0, "x"});
  count("grid.handoffs_delivered", in.handoffs);
  count("grid.gossip_sent", in.gossip_sent);
  count("grid.gossip_dropped", in.gossip_dropped);
  ms("campaign.cell_busy_ms.p50", median(in.unit_busy_ms));
  ms("campaign.cell_busy_ms.tail", tail(in.unit_busy_ms));
  r.layers.push_back(
      {"campaign.pool_busy_ratio",
       in.traced_wall_ms > 0
           ? sum(in.unit_busy_ms) / (kThreads * in.traced_wall_ms)
           : 0,
       "ratio"});
  r.layers.push_back({"trace.overhead_pct", in.overhead_pct, "%"});
  add_registry_layers(r, snaps);
}

void add_end_to_end(Result& r, double sim_rate, double slice_p50,
                    double slice_tail, double setup_s, double rss_mib,
                    double checkpoint_bytes, double throughput,
                    double detect_ms) {
  r.end_to_end = {
      {"sim_rate", sim_rate, "sim_s/s"},
      {"slice_ms.p50", slice_p50, "ms"},
      {"slice_ms.tail", slice_tail, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mib, "MiB"},
      {"checkpoint_mb", checkpoint_bytes / 1e6, "MB"},
      {"throughput_vpm", throughput, "veh/sim_min"},
      {"detect_ms", detect_ms, "sim_ms"},
  };
}

double overhead_pct(double untraced_rate, double traced_rate) {
  return traced_rate > 0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0;
}

/// serve and grid: the same loop over a World or a Grid. setup_s is the
/// median over `extra_setups` constructions plus each timed repetition's.
template <typename Source, typename Config>
Result run_streamed(const Options& opt, const std::function<Config(bool)>& config,
                    Duration duration, Duration snapshot_every,
                    bool snapshot_at_end, int extra_setups,
                    const std::function<std::unique_ptr<Source>(const Bytes&)>&
                        restore) {
  Result r;
  std::vector<double> setups;
  setup_samples<Source>(config(false), extra_setups, setups);

  trace::Tracer spans;  // enabled only around the traced repetition
  std::vector<Rep> reps;
  double rss = 0;
  timed_reps(opt.seconds, [&] {
    reps.push_back(stream_rep<Source>(config(false), false, duration,
                                      snapshot_every, snapshot_at_end, spans));
    setups.push_back(reps.back().setup_s);
    // One repetition's high-water mark: later ones only add allocator
    // fragmentation, and how many fit depends on the host.
    if (reps.size() == 1) rss = peak_rss_mib();
  });

  spans.set_enabled(true);
  Rep traced = stream_rep<Source>(config(true), true, duration, snapshot_every,
                                  snapshot_at_end, spans);
  LayerInputs in;
  require(restore_resaves(traced.last_blob, spans, duration, in.restore_ms,
                          restore),
          "restored checkpoint re-saves to different bytes", traced.why);
  require(checkpoint_sections(traced.last_blob, in.sections),
          "malformed checkpoint envelope", traced.why);
  for (const sim::ScenarioConfig& c : traced.world_configs) {
    if (!opt.trace) break;  // per-layer only
    progress("keygen and arrival draw");
    in.keygen_ms += keygen_ms(c.seed, spans);
    in.arrivals_ms += arrivals_ms(c, spans, in.arrivals);
  }
  spans.set_enabled(false);

  std::string reference = traced.digest;
  if (opt.corrupt_digest) reference += "-corrupt";
  // Every repetition does identical work slice by slice, so each slice's
  // time is its fastest across them: a host slowdown during one repetition
  // does not read as slow slices. sim_rate is taken over the same profile.
  std::vector<double> rates;
  std::vector<double> slices = reps.front().slice_ms;
  for (Rep& rep : reps) {
    require(rep.detect_ms.has_value(), "V1 deviator not detected", rep.why);
    settle(r, "timed rep", static_cast<long>(rep.slice_ms.size()), rep.why,
           rep.digest, reference);
    rates.push_back(static_cast<double>(duration) / rep.wall_ms);
    for (std::size_t k = 0; k < slices.size(); ++k) {
      slices[k] = std::min(slices[k], rep.slice_ms[k]);
    }
  }
  settle(r, "traced rep", static_cast<long>(traced.slice_ms.size()), traced.why,
         traced.digest, traced.digest);

  const Rep& last = reps.back();
  add_end_to_end(r, static_cast<double>(duration) / sum(slices),
                 median(slices), tail(slices),
                 median(setups), rss, static_cast<double>(last.last_blob.size()),
                 last.throughput_vpm,
                 static_cast<double>(last.detect_ms.value_or(0)));

  // Per slice, a lattice waits for its slowest shard; what the slice took
  // beyond that (and beyond the benchmark's own save and sink spans) is
  // signature prefetch, exchange, streaming and loop overhead.
  std::vector<double> critical(traced.slice_ms.size(), 0.0);
  for (const auto& events : traced.events) {
    SpanTotals world;
    world.add(events);
    in.unit_busy_ms.push_back(world.busy_ms());
    const std::size_t n = std::min(critical.size(), world.busy_by_slice_ms.size());
    for (std::size_t k = 0; k < n; ++k) {
      critical[k] = std::max(critical[k], world.busy_by_slice_ms[k]);
    }
    in.spans.add(events);
  }
  in.unattributed_ms = sum(traced.slice_ms) - sum(critical) -
                       sum(traced.save_ms) - traced.sink_ms;
  const std::size_t n = traced.slice_ms.size();
  const std::size_t m = std::min<std::size_t>(60, n);
  for (std::size_t i = 0; i < m; ++i) {
    in.minute_first_ms += traced.slice_ms[i];
    in.minute_last_ms += traced.slice_ms[n - m + i];
  }
  in.traced_wall_ms = traced.wall_ms;
  in.live_vehicles = traced.live_vehicles;
  in.save_ms = traced.save_ms;
  in.frames = traced.frames;
  in.stream_bytes = traced.stream_bytes;
  in.sink_ms = traced.sink_ms;
  in.handoffs = traced.handoffs;
  in.gossip_sent = traced.gossip_sent;
  in.gossip_dropped = traced.gossip_dropped;
  in.overhead_pct = overhead_pct(
      median(rates), static_cast<double>(duration) / traced.wall_ms);
  std::vector<const Snapshot*> snaps;
  for (const Snapshot& s : traced.snapshots) snaps.push_back(&s);
  add_layers(r, in, snaps);

  std::vector<std::vector<Event>> streams{spans.take()};
  std::vector<std::string> names{"bench"};
  for (std::size_t i = 0; i < traced.events.size(); ++i) {
    streams.push_back(std::move(traced.events[i]));
    names.push_back(traced.events.size() == 1 ? "world"
                                              : "shard." + std::to_string(i));
  }
  write_trace(opt, streams, names, r);
  return r;
}

}  // namespace

// --- serve_cross4_80vpm_rsa ------------------------------------------------

Result run_serve(const Options& opt) {
  const Duration duration = sim_duration(opt, 300'000);
  // A checkpoint every 10 s: examples/serve's --state default.
  return run_streamed<sim::World, sim::ScenarioConfig>(
      opt,
      [&](bool traced) { return base_scenario(opt, duration, 80, traced); },
      duration, 10'000, false, 2,
      [](const Bytes& b) { return sim::World::checkpoint_restore(b); });
}

// --- grid2x2_20vpm_rsa -------------------------------------------------------

Result run_grid(const Options& opt) {
  const Duration duration = sim_duration(opt, 1'200'000);
  return run_streamed<sim::Grid, sim::GridConfig>(
      opt,
      [&](bool traced) {
        sim::GridConfig g;
        g.rows = 2;
        g.cols = 2;
        g.seed = opt.scenario_seed;
        g.attack_shard = 0;  // the V1 attacker lives in shard 0; gossip spreads
        g.grid_threads = kThreads;
        // step_threads passes through nested_thread_budget: one per shard.
        g.shard = base_scenario(opt, duration, 20, traced);
        return g;
      },
      duration, 0, true, 1,
      [](const Bytes& b) { return sim::Grid::checkpoint_restore(b, kThreads); });
}

// --- paper_matrix_80vpm_rsa ------------------------------------------------

Result run_matrix(const Options& opt) {
  Result r;
  const Duration duration = sim_duration(opt, 60'000);
  const auto config = [&](bool traced) {
    sim::CampaignConfig c;
    c.kinds.assign(std::begin(traffic::kAllIntersectionKinds),
                   std::end(traffic::kAllIntersectionKinds));
    c.attacks = {"benign"};
    for (const auto& s : protocol::table1_attack_settings()) {
      c.attacks.push_back(s.name);
    }
    c.densities_vpm = {80};
    c.rounds = 1;
    c.base_seed = opt.scenario_seed;
    c.duration_ms = duration;
    c.threads = kThreads;
    c.trace = traced;
    c.base.signer = sim::SignerKind::kRsa2048;
    c.base.attack_time = attack_time(opt, duration);
    return c;
  };
  const sim::CampaignConfig untraced_cfg = config(false);
  const std::vector<sim::CampaignCell> cells = sim::expand_cells(untraced_cfg);
  const double sim_ms_per_rep =
      static_cast<double>(cells.size()) * static_cast<double>(duration);
  // The cross4/V1 cell, run again standalone in the traced phase.
  std::size_t ref = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].kind == traffic::IntersectionKind::kCross4 &&
        cells[i].attack == "V1") {
      ref = i;
    }
  }

  // The matrix has no set-up of its own (each cell builds its World inside
  // the timed campaign); setup_s times constructing one cell's World, once
  // before and once after every repetition, so the samples span the run.
  std::vector<double> setups;
  const auto sample_setup = [&] {
    setup_samples<sim::World>(sim::cell_scenario(untraced_cfg, cells[ref]), 1,
                              setups);
  };
  sample_setup();

  struct CampaignRep {
    double wall_ms{0};
    std::string digest;
    std::string why;
    std::vector<sim::CellResult> results;
  };
  const auto run_once = [&](bool traced) {
    CampaignRep rep;
    progress(traced ? "traced campaign" : "timed campaign");
    ops_started(static_cast<long>(cells.size()));
    const auto t0 = Clock::now();
    rep.results = sim::run_campaign(config(traced));
    rep.wall_ms = ms_since(t0);
    rep.digest = crypto::digest_hex(
        crypto::sha256(sim::campaign_results_json(untraced_cfg, rep.results)));
    require(rep.results.size() == cells.size(), "campaign lost cells", rep.why);
    require(std::any_of(rep.results.begin(), rep.results.end(),
                        [](const sim::CellResult& c) {
                          return c.summary.metrics.deviation_detection_time()
                              .has_value();
                        }),
            "no cell detected its deviator", rep.why);
    return rep;
  };

  std::vector<CampaignRep> reps;
  double rss = 0;
  timed_reps(opt.seconds, [&] {
    reps.push_back(run_once(false));
    if (reps.size() == 1) rss = peak_rss_mib();
    reps.back().results.clear();
    sample_setup();
  });

  trace::Tracer spans;
  spans.set_enabled(true);
  CampaignRep traced = run_once(true);
  spans.complete("bench", "campaign", 0, duration, traced.wall_ms * 1000);
  sample_setup();

  // The reference cell as a streamed World with a checkpoint at its end: its
  // digest must equal the campaign's cell, and it gives the matrix its
  // checkpoint and stream numbers.
  const Rep cell = stream_rep<sim::World>(
      sim::cell_scenario(config(true), cells[ref]), true, duration, 0, true,
      spans);
  LayerInputs in;
  traced.why += cell.why;
  require(cell.digest ==
              sim::checkpoint::run_summary_digest(traced.results[ref].summary),
          "standalone reference cell differs from its campaign cell",
          traced.why);
  require(restore_resaves(cell.last_blob, spans, duration, in.restore_ms,
                          [](const Bytes& b) {
                            return sim::World::checkpoint_restore(b);
                          }),
          "restored checkpoint re-saves to different bytes", traced.why);
  require(checkpoint_sections(cell.last_blob, in.sections),
          "malformed checkpoint envelope", traced.why);
  if (opt.trace) {  // per-layer only
    progress("keygen and arrival draw");
    in.keygen_ms = keygen_ms(opt.scenario_seed, spans);
    for (const sim::CampaignCell& c : cells) {
      in.arrivals_ms +=
          arrivals_ms(sim::cell_scenario(untraced_cfg, c), spans, in.arrivals);
    }
  }
  spans.set_enabled(false);

  std::string reference = traced.digest;
  if (opt.corrupt_digest) reference += "-corrupt";
  std::vector<double> rates, walls;
  for (const CampaignRep& rep : reps) {
    settle(r, "timed rep", static_cast<long>(cells.size()), rep.why,
           rep.digest, reference);
    rates.push_back(sim_ms_per_rep / rep.wall_ms);
    walls.push_back(rep.wall_ms);
  }
  settle(r, "traced rep", static_cast<long>(cells.size()), traced.why,
         traced.digest, traced.digest);

  double throughput = 0;
  std::vector<double> detect;
  std::vector<const Snapshot*> snaps;
  for (const sim::CellResult& c : traced.results) {
    throughput += c.summary.throughput_vpm;
    if (const auto d = c.summary.metrics.deviation_detection_time()) {
      detect.push_back(static_cast<double>(*d));
    }
    SpanTotals one;
    one.add(c.trace);
    in.unit_busy_ms.push_back(one.busy_ms());
    in.spans.add(c.trace);
    in.live_vehicles += c.summary.active_at_end;
    snaps.push_back(&c.summary.metrics_snapshot);
  }
  // A matrix "slice" is one whole campaign.
  add_end_to_end(r, median(rates), median(walls), tail(walls), median(setups),
                 rss, static_cast<double>(cell.last_blob.size()),
                 throughput / static_cast<double>(cells.size()), mean(detect));

  // Cells last one simulated minute: both minute figures are a cell's mean
  // busy wall. Pool capacity the cells' spans leave uncovered is key
  // generation, World construction and the pool's idle tail.
  in.minute_first_ms = in.minute_last_ms = mean(in.unit_busy_ms);
  in.unattributed_ms = kThreads * traced.wall_ms - sum(in.unit_busy_ms);
  in.traced_wall_ms = traced.wall_ms;
  in.save_ms = cell.save_ms;
  in.frames = cell.frames;
  in.stream_bytes = cell.stream_bytes;
  in.sink_ms = cell.sink_ms;
  in.overhead_pct = overhead_pct(median(rates), sim_ms_per_rep / traced.wall_ms);
  add_layers(r, in, snaps);

  std::vector<std::vector<Event>> streams{spans.take()};
  std::vector<std::string> names{"bench"};
  for (sim::CellResult& c : traced.results) {
    streams.push_back(std::move(c.trace));
    names.push_back(sim::cell_label(c.cell));
  }
  streams.push_back(cell.events.front());
  names.push_back("reference " + sim::cell_label(cells[ref]));
  write_trace(opt, streams, names, r);
  return r;
}

}  // namespace perfbench
