#include "sim/grid.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "crypto/sha256.h"
#include "sim/checkpoint.h"

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

/// Moves the items of `pending` due by `t` out and hands each to `deliver`
/// in (deliver_at, seq) order; the rest stay queued in their order.
template <class Item, class Deliver>
void drain_due(std::vector<Item>& pending, Tick t, Deliver&& deliver) {
  std::vector<Item> due;
  std::vector<Item> keep;
  for (Item& item : pending) {
    (item.deliver_at <= t ? due : keep).push_back(std::move(item));
  }
  pending = std::move(keep);
  std::sort(due.begin(), due.end(), [](const Item& a, const Item& b) {
    return a.deliver_at != b.deliver_at ? a.deliver_at < b.deliver_at
                                        : a.seq < b.seq;
  });
  for (const Item& item : due) deliver(item);
}

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
    drain_due(e.handoffs, t, [&](const PendingHandoff& h) {
      if (h.legacy) {
        target.inject_legacy(h.id, h.route_id, h.traits, h.speed_mps);
      } else {
        target.inject_vehicle(h.id, h.route_id, h.traits, h.speed_mps,
                              h.attack);
      }
      ++handoffs_delivered_;
    });
    drain_due(e.gossip, t, [&](const PendingGossip& g) {
      for (const VehicleId s : g.suspects) {
        if (target.import_blacklist(s)) ++gossip_imports_;
      }
    });
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

template <class Ar, class Self>
void GridConfig::io(Ar& ar, Self& g) {
  ar.u32(g.rows);
  ar.u32(g.cols);
  ar.u64(g.seed);
  ar.i64(g.exchange_every_ms);
  ar.i64(g.gossip_every_ms);
  ar.i64(g.max_hops);
  ar.i64(g.attack_shard);
  auto& e = g.edge;
  ar.i64(e.base_latency_ms);
  ar.i64(e.jitter_ms);
  ar.f64(e.ge_p_good_to_bad);
  ar.f64(e.ge_p_bad_to_good);
  ar.f64(e.ge_loss_good);
  ar.f64(e.ge_loss_bad);
  ar.seq(e.outages, 16, [](auto& a, auto& o) {
    a.i64(o.from);
    a.i64(o.until);
  });
  ar(g.shard);  // rejects step_ms <= 0
  if constexpr (Ar::kReading) {
    if (!ar.ok()) return;
    if (g.rows < 1 || g.cols < 1 || g.rows > 64 || g.cols > 64 ||
        g.rows * g.cols > 64 || g.exchange_every_ms <= 0 ||
        g.exchange_every_ms % g.shard.step_ms != 0 || g.gossip_every_ms <= 0 ||
        g.gossip_every_ms % g.exchange_every_ms != 0) {
      ar.fail();
    }
  }
}

template <class Ar, class Self>
void Grid::state_io(Ar& ar, Self& grid) {
  ar.i64(grid.now_);
  ar.u64(grid.handoffs_delivered_);
  ar.u64(grid.gossip_imports_);
  ar.u64(grid.retired_boundary_);
  ar.u64(grid.retired_hops_);
  ar.u64(grid.retired_revisit_);
  ar.map(grid.roam_, 17, [](auto& a, auto& id, auto& ro) {
    a.id(id);
    a.u64(ro.visited_mask);
    a.u8(ro.hops);
  });
  ar.fixed(grid.edges_, [](auto& a, auto& e) {
    a(e.channel);
    a.u64(e.next_seq);
    a.seq(e.handoffs, 48, [](auto& b, auto& h) {
      b.u64(h.seq);
      b.i64(h.deliver_at);
      b.id(h.id);
      b.i64(h.route_id);
      b.f64(h.speed_mps);
      b(h.traits);
      b(h.attack);
      b.flag(h.legacy);
    });
    a.seq(e.gossip, 20, [](auto& b, auto& g) {
      b.u64(g.seq);
      b.i64(g.deliver_at);
      b.ids(g.suspects);
    });
  });
}

Bytes Grid::checkpoint_save() const {
  // Exchange boundaries are the only instants where every shard's exit log
  // is drained (World exit logs are deliberately not checkpointed).
  assert(now_ % config_.exchange_every_ms == 0);

  checkpoint::SectionWriter out;
  out.add(kSectionGrid, [&](WriteArchive& ar) {
    ar(config_);
    state_io(ar, *this);
  });
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    out.add_bytes("shard." + std::to_string(i), shards_[i]->checkpoint_save());
  }
  return out.finish(kGridCheckpointSchema);
}

std::unique_ptr<Grid> Grid::checkpoint_restore(const Bytes& blob,
                                               int grid_threads,
                                               std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::unique_ptr<Grid> {
    if (error) *error = msg;
    return nullptr;
  };

  checkpoint::SectionReader in;
  if (!in.parse(blob, kGridCheckpointSchema, kGridMaxSections, error)) {
    return nullptr;
  }
  const Bytes* section = in.find(kSectionGrid);
  if (section == nullptr) return fail("missing grid section");
  ByteReader g(*section);
  ReadArchive ar(g);

  GridConfig cfg;
  ar(cfg);
  if (!ar.ok()) return fail("malformed grid section");
  cfg.grid_threads = grid_threads;

  auto grid = std::unique_ptr<Grid>(new Grid(std::move(cfg), false));
  const int n = grid->config_.rows * grid->config_.cols;
  grid->shards_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Bytes* shard = in.find("shard." + std::to_string(i));
    if (shard == nullptr) {
      return fail("missing shard." + std::to_string(i) + " section");
    }
    std::string shard_error;
    std::unique_ptr<World> w = World::checkpoint_restore(*shard, &shard_error);
    if (!w) {
      return fail("shard." + std::to_string(i) + ": " + shard_error);
    }
    w->enable_exit_log();
    grid->shards_.push_back(std::move(w));
  }

  state_io(ar, *grid);
  if (!ar.ok() || !g.at_end()) return fail("malformed grid section");
  if (grid->now_ < 0 || grid->now_ % grid->config_.exchange_every_ms != 0) {
    return fail("grid checkpoint not at an exchange boundary");
  }
  return grid;
}

}  // namespace nwade::sim
