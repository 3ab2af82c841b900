#include "svc/streamer.h"

#include <cstring>
#include <utility>

#include "sim/grid.h"
#include "sim/world.h"
#include "svc/frame.h"
#include "util/trace.h"

namespace nwade::svc {

namespace {

/// Detection-timeline categories worth streaming live. Everything else
/// ("sim" phase spans, "net" internals) is volume without operational
/// signal — and sim spans carry wall-clock durations, which would break the
/// stream's byte-identity contract.
bool streamable(const util::trace::Event& e) {
  return std::strcmp(e.cat, "nwade") == 0 || std::strcmp(e.cat, "im") == 0;
}

/// The liveness row of shard `shard` (at `row`, `col` of its lattice; a
/// lone World is shard 0 at 0, 0) from its summary `s`.
std::string health_frame(std::uint64_t seq, Tick t, int shard, int row, int col,
                         const sim::World& w, const sim::RunSummary& s) {
  return FrameBuilder("health", seq, t)
      .field("shard", shard)
      .field("row", row)
      .field("col", col)
      .field("active", s.active_at_end)
      .field("spawned", s.metrics.vehicles_spawned)
      .field("exited", s.metrics.vehicles_exited)
      .field("blacklist",
             static_cast<std::int64_t>(w.im().confirmed_suspects().size()))
      .field("degraded", s.metrics.degraded_entries)
      .field("im_crashes", s.metrics.im_crashes)
      .field("im_restarts", s.metrics.im_restarts)
      .field("gap_violations", s.min_ground_truth_gap_violations)
      .take();
}

}  // namespace

TelemetryStreamer::TelemetryStreamer(StreamerConfig cfg) : cfg_(cfg) {}

TelemetryStreamer::~TelemetryStreamer() { detach(); }

void TelemetryStreamer::add_sink(StreamSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void TelemetryStreamer::emit(const std::string& json) {
  const std::string framed = encode_frame(json);
  for (StreamSink* s : sinks_) s->write(framed);
  ++frames_;
}

bool TelemetryStreamer::attach(sim::World& w, bool resume) {
  if (cfg_.cadence_ms <= 0 || cfg_.cadence_ms % w.config().step_ms != 0) {
    return false;
  }
  detach();
  world_ = &w;
  hello_json_ = FrameBuilder("hello", seq_, w.now())
                    .field("schema", kStreamSchema)
                    .field("source", "world")
                    .field("rows", 1)
                    .field("cols", 1)
                    .field("step_ms", w.config().step_ms)
                    .field("cadence_ms", cfg_.cadence_ms)
                    .take();
  if (resume) {
    // The last pre-checkpoint emission folded the gauges and snapshotted the
    // registry, and the checkpoint preserved the registry exactly — so the
    // restored snapshot IS the delta baseline the old stream left off at.
    prev_ = w.registry().snapshot();
    last_emit_t_ = w.now();
  } else {
    ++seq_;
    emit(hello_json_);
  }
  w.set_step_listener([this](Tick t) {
    if (t % cfg_.cadence_ms == 0) emit_world_point(t);
  });
  return true;
}

bool TelemetryStreamer::attach(sim::Grid& g, bool resume) {
  if (cfg_.cadence_ms <= 0 ||
      cfg_.cadence_ms % g.config().exchange_every_ms != 0) {
    return false;
  }
  detach();
  grid_ = &g;
  hello_json_ = FrameBuilder("hello", seq_, g.now())
                    .field("schema", kStreamSchema)
                    .field("source", "grid")
                    .field("rows", g.rows())
                    .field("cols", g.cols())
                    .field("step_ms", g.config().shard.step_ms)
                    .field("exchange_every_ms", g.config().exchange_every_ms)
                    .field("cadence_ms", cfg_.cadence_ms)
                    .take();
  if (resume) {
    prev_ = g.merged_metrics();
    last_emit_t_ = g.now();
  } else {
    ++seq_;
    emit(hello_json_);
  }
  g.set_exchange_listener([this](Tick t) {
    if (t % cfg_.cadence_ms == 0) emit_grid_point(t);
  });
  return true;
}

void TelemetryStreamer::detach() {
  if (world_ != nullptr) world_->set_step_listener(nullptr);
  if (grid_ != nullptr) grid_->set_exchange_listener(nullptr);
  world_ = nullptr;
  grid_ = nullptr;
}

void TelemetryStreamer::emit_trace_frames(sim::World& w, std::int64_t shard) {
  if (!w.tracer().enabled()) return;
  for (const util::trace::Event& e : w.take_trace()) {
    if (!streamable(e)) continue;
    FrameBuilder b("trace", seq_++, e.ts_ms);
    b.field("shard", shard)
        .field("cat", e.cat)
        .field("name", e.name)
        .field("ph", std::string_view(&e.phase, 1));
    if (e.phase == 'X') b.field("dur_ms", e.dur_ms);
    if (e.arg_key != nullptr) b.field(e.arg_key, e.arg_value);
    emit(b.take());
  }
}

void TelemetryStreamer::emit_heartbeat(Tick t) {
  if (!cfg_.emit_heartbeat) return;
  const std::int64_t wall = cfg_.wall != nullptr ? cfg_.wall->now_us() : 0;
  emit(FrameBuilder("heartbeat", seq_++, t)
           .field("wall_us", wall)
           .field("frames", static_cast<std::int64_t>(frames_))
           .take());
}

void TelemetryStreamer::emit_world_point(Tick t) {
  sim::World& w = *world_;
  // summary() folds the protocol/crypto silos into registry gauges before
  // snapshotting, so the detection timeline is visible live in the deltas.
  const sim::RunSummary s = w.summary();
  if (cfg_.emit_health) emit(health_frame(seq_++, t, 0, 0, 0, w, s));
  if (cfg_.emit_metrics) {
    util::telemetry::MetricsSnapshot snap = s.metrics_snapshot;
    const util::telemetry::MetricsSnapshot delta = snap.diff(prev_);
    emit(FrameBuilder("metrics", seq_++, t)
             .raw("delta", delta.json_compact())
             .take());
    prev_ = std::move(snap);
  }
  if (cfg_.emit_trace) emit_trace_frames(w, 0);
  emit_heartbeat(t);
  last_emit_t_ = t;
}

void TelemetryStreamer::emit_grid_point(Tick t) {
  sim::Grid& g = *grid_;
  const sim::GridSummary gs = g.summary();
  if (cfg_.emit_health) {
    for (int i = 0; i < g.shard_count(); ++i) {
      const int row = i / g.cols();
      const int col = i % g.cols();
      emit(health_frame(seq_++, t, i, row, col, g.shard(row, col),
                        gs.shards[static_cast<std::size_t>(i)]));
    }
    emit(FrameBuilder("status", seq_++, t)
             .field("handoffs_sent",
                    static_cast<std::int64_t>(gs.handoffs_sent))
             .field("handoffs_deferred",
                    static_cast<std::int64_t>(gs.handoffs_deferred))
             .field("handoffs_delivered",
                    static_cast<std::int64_t>(gs.handoffs_delivered))
             .field("gossip_sent", static_cast<std::int64_t>(gs.gossip_sent))
             .field("gossip_dropped",
                    static_cast<std::int64_t>(gs.gossip_dropped))
             .field("gossip_imports",
                    static_cast<std::int64_t>(gs.gossip_imports))
             .field("retired", static_cast<std::int64_t>(gs.retired))
             .take());
  }
  if (cfg_.emit_metrics) {
    // Fold the summaries just taken rather than calling merged_metrics()
    // (which would re-summarize every shard).
    util::telemetry::MetricsSnapshot merged;
    for (const sim::RunSummary& s : gs.shards) merged.merge(s.metrics_snapshot);
    const util::telemetry::MetricsSnapshot delta = merged.diff(prev_);
    emit(FrameBuilder("metrics", seq_++, t)
             .raw("delta", delta.json_compact())
             .take());
    prev_ = std::move(merged);
  }
  if (cfg_.emit_trace) {
    for (int i = 0; i < g.shard_count(); ++i) {
      emit_trace_frames(g.shard(i / g.cols(), i % g.cols()), i);
    }
  }
  emit_heartbeat(t);
  last_emit_t_ = t;
}

void TelemetryStreamer::finish() {
  const Tick now =
      world_ != nullptr ? world_->now() : (grid_ != nullptr ? grid_->now() : 0);
  if ((world_ != nullptr || grid_ != nullptr) && now != last_emit_t_) {
    // The run ended off-cadence: flush one last regular point so nothing
    // between the final cadence boundary and the end is lost.
    if (world_ != nullptr) {
      emit_world_point(now);
    } else {
      emit_grid_point(now);
    }
  }
  emit(FrameBuilder("metrics_total", seq_++, now)
           .raw("snapshot", prev_.json_compact())
           .take());
  emit_heartbeat(now);
}

std::string TelemetryStreamer::catch_up() const {
  const std::uint64_t last_seq = seq_ > 0 ? seq_ - 1 : 0;
  std::string out = encode_frame(hello_json_);
  out += encode_frame(FrameBuilder("metrics_total", last_seq,
                                   last_emit_t_ >= 0 ? last_emit_t_ : 0)
                          .raw("snapshot", prev_.json_compact())
                          .take());
  return out;
}

}  // namespace nwade::svc
