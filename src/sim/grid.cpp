#include "sim/grid.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "crypto/sha256.h"
#include "sim/checkpoint.h"
#include "util/crc32.h"

namespace nwade::sim {

namespace {

/// Ids handed out by shard i start at i * kIdStride, so NodeIds stay globally
/// unique as vehicles roam. The constructor asserts total demand fits.
constexpr std::uint64_t kIdStride = 1'000'000;

constexpr std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
constexpr std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  return splitmix(a ^ splitmix(b + 0x632be59bd9b4e019ULL));
}
constexpr std::uint64_t mix3(std::uint64_t a, std::uint64_t b,
                             std::uint64_t c) {
  return mix2(mix2(a, b), c);
}

constexpr std::string_view kGridCheckpointSchema = "nwade-grid-ckpt-v1";
constexpr const char* kSectionGrid = "grid";
/// More generous than the single-world parser (64 shards + grid + future
/// extensions); unknown sections are skipped after their CRC checks out.
constexpr std::size_t kGridMaxSections = 256;

}  // namespace

Grid::Grid(GridConfig config) : Grid(std::move(config), true) {}

Grid::Grid(GridConfig config, bool construct_worlds)
    : config_(std::move(config)), pool_(config_.grid_threads) {
  const int n = config_.rows * config_.cols;
  assert(config_.rows >= 1 && config_.cols >= 1);
  assert(n <= 64 && "Roam::visited_mask is a 64-bit shard bitmask");
  assert(config_.shard.step_ms > 0);
  assert(config_.exchange_every_ms > 0 &&
         config_.exchange_every_ms % config_.shard.step_ms == 0);
  assert(config_.gossip_every_ms > 0 &&
         config_.gossip_every_ms % config_.exchange_every_ms == 0);
  if (n > 1) {
    assert(config_.shard.intersection.kind ==
               traffic::IntersectionKind::kCross4 &&
           "multi-shard grids require the cross4 leg->neighbour mapping");
  }
  build_edges();
  if (!construct_worlds) return;

  // Derive per-shard scenarios: disjoint seeds and id ranges, and an inner
  // step-thread budget that keeps one level of parallelism at a time (the
  // WorkerPool oversubscription policy — 8 shard threads x 4 step threads
  // must run 8 workers, not 32).
  std::vector<ScenarioConfig> cfgs(static_cast<std::size_t>(n), config_.shard);
  std::vector<std::size_t> counts(static_cast<std::size_t>(n), 0);
  std::size_t total = 0;
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    cfgs[ui].seed = mix2(config_.seed, static_cast<std::uint64_t>(i));
    cfgs[ui].vehicle_id_base = kIdStride * static_cast<std::uint64_t>(i);
    cfgs[ui].step_threads = util::nested_thread_budget(
        config_.grid_threads, config_.shard.step_threads);
    if (config_.attack_shard >= 0 && i != config_.attack_shard) {
      cfgs[ui].attack = protocol::AttackSetting{"benign", 0, false, 0, 0};
    }
    counts[ui] = World::arrival_count(cfgs[ui]);
    total += counts[ui];
  }
  assert(total < kIdStride && "shard id ranges would collide");
  shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    // A vehicle enters any shard at most once (revisit retirement), so the
    // worst-case injection load on a shard is every OTHER shard's arrivals.
    cfgs[ui].extra_vehicle_capacity =
        static_cast<std::uint64_t>(total - counts[ui]);
    shards_.push_back(std::make_unique<World>(cfgs[ui]));
    shards_.back()->enable_exit_log();
  }
}

std::size_t Grid::index_of(int row, int col) const {
  assert(row >= 0 && row < config_.rows && col >= 0 && col < config_.cols);
  return static_cast<std::size_t>(row) *
             static_cast<std::size_t>(config_.cols) +
         static_cast<std::size_t>(col);
}

void Grid::build_edges() {
  // Cross4 legs sit at angles {0, 90, 180, 270}; leg k therefore leads to
  // the lattice neighbour below, and arrivals from it enter the neighbour on
  // the opposite leg (k + 2) % 4. Edges are created in (shard, leg) order —
  // the fixed order phase C delivers in.
  static constexpr int kDr[4] = {0, 1, 0, -1};
  static constexpr int kDc[4] = {1, 0, -1, 0};
  const int n = config_.rows * config_.cols;
  edge_by_exit_.assign(static_cast<std::size_t>(n),
                       std::array<int, 4>{-1, -1, -1, -1});
  for (int r = 0; r < config_.rows; ++r) {
    for (int c = 0; c < config_.cols; ++c) {
      const int idx = r * config_.cols + c;
      for (int leg = 0; leg < 4; ++leg) {
        const int nr = r + kDr[leg];
        const int nc = c + kDc[leg];
        if (nr < 0 || nr >= config_.rows || nc < 0 || nc >= config_.cols) {
          continue;
        }
        const int nidx = nr * config_.cols + nc;
        // Each directed edge owns an independent fault/latency stream
        // derived from the grid seed and the edge's fixed ordinal.
        const std::uint64_t edge_salt =
            static_cast<std::uint64_t>(idx) * 4u + static_cast<std::uint64_t>(leg);
        edges_.push_back(Edge{
            idx, nidx, leg, (leg + 2) % 4,
            net::EdgeChannel(config_.edge,
                             Rng(mix3(config_.seed, 0xed6e5ULL, edge_salt))),
            0, {}, {}});
        edge_by_exit_[static_cast<std::size_t>(idx)][static_cast<std::size_t>(
            leg)] = static_cast<int>(edges_.size()) - 1;
      }
    }
  }
}

void Grid::run_until(Tick t) {
  assert(t >= now_);
  assert(t % config_.shard.step_ms == 0);
  const Duration ex = config_.exchange_every_ms;
  while (now_ < t) {
    // Boundaries live on the absolute exchange lattice, so the schedule is
    // independent of how callers slice their run_until calls.
    const Tick boundary = (now_ / ex + 1) * ex;
    const Tick step_to = std::min<Tick>(boundary, t);
    // Phase A: every shard advances independently (nothing mutable is
    // shared between worlds); the pool only changes wall clock.
    pool_.for_each(shards_.size(),
                   [&](std::size_t i) { shards_[i]->run_until(step_to); });
    now_ = step_to;
    if (now_ == boundary) {
      exchange(now_);
      if (exchange_listener_) exchange_listener_(now_);
    }
  }
}

GridSummary Grid::run() {
  run_until(config_.shard.duration_ms);
  return summary();
}

int Grid::continuation_route(int shard_idx, int entry_leg, VehicleId id,
                             int hop) const {
  const traffic::Intersection& ix =
      shards_[static_cast<std::size_t>(shard_idx)]->intersection();
  // Stateless draw: a pure function of (grid seed, vehicle, hop count), so
  // the continuation is independent of delivery order and thread count.
  Rng pick(mix3(config_.seed, id.value, static_cast<std::uint64_t>(hop)));
  const std::vector<int> routes = ix.routes_from_leg(entry_leg);
  const std::vector<double> weights = ix.turn_weights(entry_leg);
  assert(!routes.empty() && routes.size() == weights.size());
  return routes[pick.weighted_index(weights)];
}

void Grid::exchange(Tick t) {
  // --- Phase B: drain exits into edge queues (serial, fixed shard order) ---
  const int n = config_.rows * config_.cols;
  for (int idx = 0; idx < n; ++idx) {
    const auto uidx = static_cast<std::size_t>(idx);
    for (const World::ExitRecord& ex : shards_[uidx]->take_exits()) {
      Roam& roam = roam_[ex.id];
      if (roam.visited_mask == 0) roam.visited_mask = 1ULL << idx;
      const int exit_leg =
          shards_[uidx]->intersection().route(ex.route_id).exit_leg;
      const int ei =
          exit_leg < 4 ? edge_by_exit_[uidx][static_cast<std::size_t>(exit_leg)]
                       : -1;
      if (ei < 0) {
        ++retired_boundary_;
        continue;
      }
      if (roam.hops >= config_.max_hops) {
        ++retired_hops_;
        continue;
      }
      Edge& e = edges_[static_cast<std::size_t>(ei)];
      if ((roam.visited_mask >> e.to) & 1ULL) {
        // Never re-enter a crossed shard: keeps per-world ids unique and
        // the itinerary loop-free. Such vehicles leave the modelled region.
        ++retired_revisit_;
        continue;
      }
      ++roam.hops;
      roam.visited_mask |= 1ULL << e.to;
      PendingHandoff h;
      h.seq = e.next_seq++;
      h.deliver_at = e.channel.reliable_delivery_at(ex.exit_time);
      h.id = ex.id;
      h.route_id = continuation_route(e.to, e.entry_leg, ex.id, roam.hops);
      h.speed_mps = ex.speed_mps;
      h.traits = ex.traits;
      h.attack = ex.attack;
      h.legacy = ex.legacy;
      e.handoffs.push_back(std::move(h));
    }
  }
  // Gossip rounds: every IM rebroadcasts its full confirmed-suspect set over
  // every outgoing edge (cumulative resend — imports are idempotent, so a
  // lost datagram only delays propagation until the next round).
  if (t % config_.gossip_every_ms == 0) {
    for (Edge& e : edges_) {
      const std::set<VehicleId>& suspects =
          shards_[static_cast<std::size_t>(e.from)]->im().confirmed_suspects();
      if (suspects.empty()) continue;
      const std::uint64_t seq = e.next_seq++;
      if (const std::optional<Tick> at = e.channel.lossy_delivery_at(t)) {
        PendingGossip g;
        g.seq = seq;
        g.deliver_at = *at;
        g.suspects.assign(suspects.begin(), suspects.end());
        e.gossip.push_back(std::move(g));
      }
    }
  }

  // --- Phase C: deliver due items (serial, fixed edge order; (deliver_at,
  // seq) order within an edge so jitter-induced reordering is deterministic).
  for (Edge& e : edges_) {
    World& target = *shards_[static_cast<std::size_t>(e.to)];
    {
      std::vector<PendingHandoff> due;
      std::vector<PendingHandoff> keep;
      for (PendingHandoff& h : e.handoffs) {
        (h.deliver_at <= t ? due : keep).push_back(std::move(h));
      }
      e.handoffs = std::move(keep);
      std::sort(due.begin(), due.end(),
                [](const PendingHandoff& a, const PendingHandoff& b) {
                  return a.deliver_at != b.deliver_at
                             ? a.deliver_at < b.deliver_at
                             : a.seq < b.seq;
                });
      for (const PendingHandoff& h : due) {
        if (h.legacy) {
          target.inject_legacy(h.id, h.route_id, h.traits, h.speed_mps);
        } else {
          target.inject_vehicle(h.id, h.route_id, h.traits, h.speed_mps,
                                h.attack);
        }
        ++handoffs_delivered_;
      }
    }
    {
      std::vector<PendingGossip> due;
      std::vector<PendingGossip> keep;
      for (PendingGossip& g : e.gossip) {
        (g.deliver_at <= t ? due : keep).push_back(std::move(g));
      }
      e.gossip = std::move(keep);
      std::sort(due.begin(), due.end(),
                [](const PendingGossip& a, const PendingGossip& b) {
                  return a.deliver_at != b.deliver_at
                             ? a.deliver_at < b.deliver_at
                             : a.seq < b.seq;
                });
      for (const PendingGossip& g : due) {
        for (const VehicleId s : g.suspects) {
          if (target.import_blacklist(s)) ++gossip_imports_;
        }
      }
    }
  }
}

GridSummary Grid::summary() const {
  GridSummary s;
  s.rows = config_.rows;
  s.cols = config_.cols;
  s.shards.reserve(shards_.size());
  for (const auto& w : shards_) {
    s.shards.push_back(w->summary());
    s.aggregate_throughput_vpm += s.shards.back().throughput_vpm;
  }
  for (const Edge& e : edges_) {
    const net::EdgeChannel::Stats& st = e.channel.stats();
    s.handoffs_sent += st.handoffs;
    s.handoffs_deferred += st.deferred;
    s.gossip_sent += st.gossip_sent;
    s.gossip_dropped += st.gossip_dropped;
  }
  s.handoffs_delivered = handoffs_delivered_;
  s.gossip_imports = gossip_imports_;
  s.retired = retired_boundary_ + retired_hops_ + retired_revisit_;
  return s;
}

util::telemetry::MetricsSnapshot Grid::merged_metrics() const {
  util::telemetry::MetricsSnapshot m;
  for (const auto& w : shards_) m.merge(w->summary().metrics_snapshot);
  return m;
}

std::string Grid::summary_digest(const GridSummary& s) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(s.rows));
  w.u32(static_cast<std::uint32_t>(s.cols));
  // Fold the per-shard digests (already wall-clock-free) rather than the raw
  // summaries, so the grid digest inherits the single-world determinism
  // contract verbatim.
  for (const RunSummary& sh : s.shards) {
    w.str(checkpoint::run_summary_digest(sh));
  }
  w.u64(s.handoffs_sent);
  w.u64(s.handoffs_deferred);
  w.u64(s.handoffs_delivered);
  w.u64(s.gossip_sent);
  w.u64(s.gossip_dropped);
  w.u64(s.gossip_imports);
  w.u64(s.retired);
  const Bytes payload = w.take();
  return crypto::digest_hex(crypto::sha256(payload));
}

// --- checkpoint/restore ------------------------------------------------------

Bytes Grid::checkpoint_save() const {
  // Exchange boundaries are the only instants where every shard's exit log
  // is drained (World exit logs are deliberately not checkpointed).
  assert(now_ % config_.exchange_every_ms == 0);

  std::vector<std::pair<std::string, Bytes>> sections;
  {
    ByteWriter w;
    // Static topology/cadence (grid_threads deliberately excluded — the
    // restoring process picks its own; it is a wall-clock knob).
    w.u32(static_cast<std::uint32_t>(config_.rows));
    w.u32(static_cast<std::uint32_t>(config_.cols));
    w.u64(config_.seed);
    w.i64(config_.exchange_every_ms);
    w.i64(config_.gossip_every_ms);
    w.i64(config_.max_hops);
    w.i64(config_.attack_shard);
    const net::EdgeFaultConfig& ef = config_.edge;
    w.i64(ef.base_latency_ms);
    w.i64(ef.jitter_ms);
    w.f64(ef.ge_p_good_to_bad);
    w.f64(ef.ge_p_bad_to_good);
    w.f64(ef.ge_loss_good);
    w.f64(ef.ge_loss_bad);
    w.u32(static_cast<std::uint32_t>(ef.outages.size()));
    for (const net::EdgeOutage& o : ef.outages) {
      w.i64(o.from);
      w.i64(o.until);
    }
    checkpoint::save_scenario_config(w, config_.shard);
    // Dynamic state.
    w.i64(now_);
    w.u64(handoffs_delivered_);
    w.u64(gossip_imports_);
    w.u64(retired_boundary_);
    w.u64(retired_hops_);
    w.u64(retired_revisit_);
    w.u32(static_cast<std::uint32_t>(roam_.size()));
    for (const auto& [id, ro] : roam_) {
      w.u64(id.value);
      w.u64(ro.visited_mask);
      w.u8(ro.hops);
    }
    w.u32(static_cast<std::uint32_t>(edges_.size()));
    for (const Edge& e : edges_) {
      e.channel.checkpoint_save(w);
      w.u64(e.next_seq);
      w.u32(static_cast<std::uint32_t>(e.handoffs.size()));
      for (const PendingHandoff& h : e.handoffs) {
        w.u64(h.seq);
        w.i64(h.deliver_at);
        w.u64(h.id.value);
        w.i64(h.route_id);
        w.f64(h.speed_mps);
        h.traits.serialize(w);
        w.u8(static_cast<std::uint8_t>(h.attack.role));
        w.i64(h.attack.trigger_at);
        w.u8(static_cast<std::uint8_t>(h.attack.deviation));
        w.u8(static_cast<std::uint8_t>(h.attack.false_report));
        w.u8(h.legacy ? 1 : 0);
      }
      w.u32(static_cast<std::uint32_t>(e.gossip.size()));
      for (const PendingGossip& g : e.gossip) {
        w.u64(g.seq);
        w.i64(g.deliver_at);
        w.u32(static_cast<std::uint32_t>(g.suspects.size()));
        for (const VehicleId s : g.suspects) w.u64(s.value);
      }
    }
    sections.emplace_back(kSectionGrid, w.take());
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    sections.emplace_back("shard." + std::to_string(i),
                          shards_[i]->checkpoint_save());
  }

  ByteWriter out;
  out.str(kGridCheckpointSchema);
  out.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    out.str(name);
    out.u32(util::crc32(payload));
    out.bytes(payload);
  }
  return out.take();
}

std::unique_ptr<Grid> Grid::checkpoint_restore(const Bytes& blob,
                                               int grid_threads,
                                               std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::unique_ptr<Grid> {
    if (error) *error = msg;
    return nullptr;
  };

  ByteReader r(blob);
  if (r.str() != kGridCheckpointSchema) {
    return fail("not an nwade-grid-ckpt-v1 checkpoint");
  }
  const std::uint32_t n_sections = r.u32();
  if (!r.ok() || n_sections > kGridMaxSections) {
    return fail("malformed section table");
  }
  std::map<std::string, Bytes> sections;
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    std::string name = r.str();
    const std::uint32_t crc = r.u32();
    Bytes payload = r.bytes();
    if (!r.ok()) return fail("truncated section '" + name + "'");
    if (util::crc32(payload) != crc) {
      return fail("CRC mismatch in section '" + name + "'");
    }
    sections[std::move(name)] = std::move(payload);
  }
  if (!r.at_end()) return fail("trailing bytes after section table");

  const auto grid_it = sections.find(kSectionGrid);
  if (grid_it == sections.end()) return fail("missing grid section");
  ByteReader g(grid_it->second);

  GridConfig cfg;
  cfg.rows = static_cast<int>(g.u32());
  cfg.cols = static_cast<int>(g.u32());
  cfg.seed = g.u64();
  cfg.exchange_every_ms = g.i64();
  cfg.gossip_every_ms = g.i64();
  cfg.max_hops = static_cast<int>(g.i64());
  cfg.attack_shard = static_cast<int>(g.i64());
  cfg.edge.base_latency_ms = g.i64();
  cfg.edge.jitter_ms = g.i64();
  cfg.edge.ge_p_good_to_bad = g.f64();
  cfg.edge.ge_p_bad_to_good = g.f64();
  cfg.edge.ge_loss_good = g.f64();
  cfg.edge.ge_loss_bad = g.f64();
  const std::uint32_t n_outages = g.u32();
  if (!g.ok() || n_outages > g.remaining() / 16) {
    return fail("malformed grid section");
  }
  for (std::uint32_t i = 0; i < n_outages; ++i) {
    net::EdgeOutage o;
    o.from = g.i64();
    o.until = g.i64();
    cfg.edge.outages.push_back(o);
  }
  if (!checkpoint::load_scenario_config(g, cfg.shard)) {
    return fail("malformed grid section");
  }
  cfg.grid_threads = grid_threads;
  if (!g.ok() || cfg.rows < 1 || cfg.cols < 1 || cfg.rows * cfg.cols > 64 ||
      cfg.shard.step_ms <= 0 || cfg.exchange_every_ms <= 0 ||
      cfg.exchange_every_ms % cfg.shard.step_ms != 0 ||
      cfg.gossip_every_ms <= 0 ||
      cfg.gossip_every_ms % cfg.exchange_every_ms != 0) {
    return fail("malformed grid section");
  }

  auto grid = std::unique_ptr<Grid>(new Grid(std::move(cfg), false));
  const int n = grid->config_.rows * grid->config_.cols;
  grid->shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto it = sections.find("shard." + std::to_string(i));
    if (it == sections.end()) {
      return fail("missing shard." + std::to_string(i) + " section");
    }
    std::string shard_error;
    std::unique_ptr<World> w = World::checkpoint_restore(it->second, &shard_error);
    if (!w) {
      return fail("shard." + std::to_string(i) + ": " + shard_error);
    }
    w->enable_exit_log();
    grid->shards_.push_back(std::move(w));
  }

  grid->now_ = g.i64();
  grid->handoffs_delivered_ = g.u64();
  grid->gossip_imports_ = g.u64();
  grid->retired_boundary_ = g.u64();
  grid->retired_hops_ = g.u64();
  grid->retired_revisit_ = g.u64();
  const std::uint32_t n_roam = g.u32();
  if (!g.ok() || n_roam > g.remaining() / 17) {
    return fail("malformed grid section");
  }
  for (std::uint32_t i = 0; i < n_roam; ++i) {
    const VehicleId id{g.u64()};
    Roam ro;
    ro.visited_mask = g.u64();
    ro.hops = g.u8();
    grid->roam_[id] = ro;
  }
  const std::uint32_t n_edges = g.u32();
  if (!g.ok() || n_edges != grid->edges_.size()) {
    return fail("malformed grid section (edge count mismatch)");
  }
  for (Edge& e : grid->edges_) {
    if (!e.channel.checkpoint_restore(g)) {
      return fail("malformed grid section (edge channel)");
    }
    e.next_seq = g.u64();
    const std::uint32_t n_handoffs = g.u32();
    if (!g.ok() || n_handoffs > g.remaining() / 48) {
      return fail("malformed grid section (handoff queue)");
    }
    e.handoffs.reserve(n_handoffs);
    for (std::uint32_t i = 0; i < n_handoffs; ++i) {
      PendingHandoff h;
      h.seq = g.u64();
      h.deliver_at = g.i64();
      h.id = VehicleId{g.u64()};
      h.route_id = static_cast<int>(g.i64());
      h.speed_mps = g.f64();
      h.traits = traffic::VehicleTraits::deserialize(g);
      const std::uint8_t role = g.u8();
      if (!g.ok() || role > static_cast<std::uint8_t>(
                                protocol::VehicleRole::kFalseReporter)) {
        return fail("malformed grid section (handoff record)");
      }
      h.attack.role = static_cast<protocol::VehicleRole>(role);
      h.attack.trigger_at = g.i64();
      h.attack.deviation = static_cast<protocol::DeviationMode>(g.u8() & 1);
      h.attack.false_report =
          static_cast<protocol::FalseReportKind>(g.u8() & 1);
      h.legacy = g.u8() != 0;
      e.handoffs.push_back(std::move(h));
    }
    const std::uint32_t n_gossip = g.u32();
    if (!g.ok() || n_gossip > g.remaining() / 20) {
      return fail("malformed grid section (gossip queue)");
    }
    e.gossip.reserve(n_gossip);
    for (std::uint32_t i = 0; i < n_gossip; ++i) {
      PendingGossip gp;
      gp.seq = g.u64();
      gp.deliver_at = g.i64();
      const std::uint32_t n_suspects = g.u32();
      if (!g.ok() || n_suspects > g.remaining() / 8) {
        return fail("malformed grid section (gossip packet)");
      }
      gp.suspects.reserve(n_suspects);
      for (std::uint32_t k = 0; k < n_suspects; ++k) {
        gp.suspects.push_back(VehicleId{g.u64()});
      }
      e.gossip.push_back(std::move(gp));
    }
  }
  if (!g.ok() || !g.at_end()) return fail("malformed grid section");
  if (grid->now_ < 0 || grid->now_ % grid->config_.exchange_every_ms != 0) {
    return fail("grid checkpoint not at an exchange boundary");
  }
  return grid;
}

}  // namespace nwade::sim
