#include "sim/world.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "util/alloc_stats.h"
#include "util/log.h"

namespace nwade::sim {

using protocol::VehicleAttackProfile;
using protocol::VehicleRole;

namespace {
/// Fixed chunk size of the watch-scan fan-out: a constant, never derived
/// from the thread count, so chunk boundaries are identical for every pool
/// size (see util::WorkerPool::parallel_for). Small, so a step's few dozen
/// due watchers spread over every pool thread.
constexpr std::size_t kWatchChunk = 4;
}  // namespace

World::World(ScenarioConfig config) : World(std::move(config), -1) {}

World::World(ScenarioConfig config, Tick resume_t)
    : config_(std::move(config)),
      intersection_(traffic::Intersection::build(config_.intersection)),
      step_pool_(config_.step_threads) {
  // Resume mode replays construction exactly, except that events which had
  // already fired by the checkpoint burn their sequence number instead of
  // being scheduled (see the private-constructor comment in world.h).
  const bool resume = resume_t >= 0;
  const auto schedule_or_burn = [&](Tick when, net::EventQueue::Callback fn) {
    if (resume && when <= resume_t) {
      queue_.skip_seq();
    } else {
      queue_.schedule_at(when, std::move(fn));
    }
  };
  tracer_.set_enabled(config_.trace_enabled);
  steps_counter_ = registry_.counter("sim.steps");

  net::NetworkConfig net_cfg = config_.network;
  net_cfg.seed = config_.seed ^ 0x6e657477ULL;
  net_cfg.registry = &registry_;
  net_cfg.tracer = &tracer_;
  network_ = std::make_unique<net::Network>(queue_, clock_, net_cfg);

  Rng rng(config_.seed);
  switch (config_.signer) {
    case SignerKind::kHmac: {
      Bytes key(32);
      for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      signer_ = std::make_unique<crypto::HmacSigner>(std::move(key));
      break;
    }
    case SignerKind::kRsa1024:
      signer_ = crypto::RsaSigner::generate(rng, 1024);
      break;
    case SignerKind::kRsa2048:
      signer_ = crypto::RsaSigner::generate(rng, 2048);
      break;
  }

  // One verifier shared by the whole fleet, wired to the run's verify cache.
  im_verifier_ = signer_->verifier_with_cache(verify_cache_);

  // Arrival schedule + attacker role assignment.
  traffic::ArrivalGenerator gen(intersection_, config_.vehicles_per_minute,
                                rng.fork(1));
  auto arrivals = gen.generate(config_.duration_ms);
  assign_attack_roles(arrivals);

  // Intersection manager.
  protocol::ImAttackProfile im_attack;
  if (config_.attack.im_malicious) {
    im_attack.mode = config_.im_attack_mode;
    im_attack.trigger_at = config_.attack_time;
  }
  protocol::ImContext im_ctx;
  im_ctx.intersection = &intersection_;
  im_ctx.config = &config_.nwade;
  im_ctx.network = network_.get();
  im_ctx.clock = &clock_;
  im_ctx.queue = &queue_;
  im_ctx.sensors = this;
  im_ctx.signer = signer_.get();
  im_ctx.metrics = &metrics_;
  im_ctx.malicious_ids = &malicious_ids_;
  im_ctx.registry = &registry_;
  im_ctx.tracer = &tracer_;
  im_ = std::make_unique<protocol::ImNode>(im_ctx, im_attack);
  network_->add_node(im_.get());
  if (resume) {
    // start()'s first window event always predates any checkpoint; the
    // restored ImNode re-arms its own pending window at the saved (when, seq).
    queue_.skip_seq();
  } else {
    im_->start();
  }

  // A fault-profile outage on the IM node is a process crash, not just a dark
  // radio: drive the crash/restart cycle so volatile state is really lost and
  // rebuilt from the durable block log on recovery.
  for (const net::Outage& outage : config_.network.fault.outages) {
    if (outage.node != kImNodeId) continue;
    schedule_or_burn(outage.from, [this] { im_->crash(clock_.now()); });
    if (outage.until < kTickMax) {
      schedule_or_burn(outage.until, [this] { im_->restart(clock_.now()); });
    }
  }

  // Schedule spawns. A configurable fraction of arrivals are legacy
  // vehicles (mixed-traffic extension); attacker roles always go to managed
  // vehicles, so role-assigned indices stay managed.
  Rng legacy_rng = rng.fork(2);
  std::uint64_t next_id = 1;
  int managed = 0;
  for (const traffic::Arrival& arrival : arrivals) {
    const VehicleId id{config_.vehicle_id_base + next_id++};
    const bool is_legacy = !attack_roles_.contains(id) &&
                           legacy_rng.chance(config_.legacy_fraction);
    if (is_legacy) {
      schedule_or_burn(arrival.time,
                       [this, arrival, id] { spawn_legacy(arrival, id); });
    } else {
      ++managed;
      schedule_or_burn(arrival.time, [this, arrival, id] { spawn(arrival, id); });
    }
  }
  metrics_.vehicles_spawned = managed;
}

World::~World() = default;

void World::assign_attack_roles(std::vector<traffic::Arrival>& arrivals) {
  const auto& attack = config_.attack;
  const int total_malicious = attack.plan_violations + attack.false_reports;
  if (total_malicious == 0) return;

  // Prefer vehicles spawning 4-16 s before the attack time: they hold plans
  // and still sit mid-approach (not yet exited) when the trigger fires.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Tick lead = config_.attack_time - arrivals[i].time;
    if (lead >= 4'000 && lead <= 16'000) candidates.push_back(i);
  }
  // Fall back to anything before the attack if the preferred window is thin.
  if (static_cast<int>(candidates.size()) < total_malicious) {
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i].time < config_.attack_time - 2'000 &&
          std::find(candidates.begin(), candidates.end(), i) == candidates.end()) {
        candidates.push_back(i);
      }
    }
  }

  int assigned = 0;
  for (std::size_t idx : candidates) {
    if (assigned >= total_malicious) break;
    // Ids are assigned in arrival order, offset by the shard's id base.
    const VehicleId id{config_.vehicle_id_base + idx + 1};
    VehicleAttackProfile profile;
    if (assigned < attack.plan_violations) {
      profile.role = VehicleRole::kDeviator;
      profile.trigger_at = config_.attack_time;
      profile.deviation = (assigned % 2 == 0) ? protocol::DeviationMode::kAccelerate
                                              : protocol::DeviationMode::kBrake;
    } else {
      profile.role = VehicleRole::kFalseReporter;
      profile.trigger_at = config_.attack_time + 300 * (assigned + 1);
      profile.false_report = config_.false_report_kind;
    }
    attack_roles_[id] = profile;
    malicious_ids_.insert(id);
    ++assigned;
  }
}

protocol::VehicleContext World::vehicle_context() {
  protocol::VehicleContext ctx;
  ctx.intersection = &intersection_;
  ctx.config = &config_.nwade;
  ctx.network = network_.get();
  ctx.clock = &clock_;
  ctx.sensors = this;
  ctx.im_verifier = im_verifier_;
  ctx.metrics = &metrics_;
  ctx.malicious_ids = &malicious_ids_;
  ctx.registry = &registry_;
  ctx.tracer = &tracer_;
  return ctx;
}

void World::spawn(const traffic::Arrival& arrival, VehicleId id) {
  VehicleAttackProfile profile;
  if (const auto it = attack_roles_.find(id); it != attack_roles_.end()) {
    profile = it->second;
  }
  auto node = std::make_unique<protocol::VehicleNode>(
      vehicle_context(), id, arrival.route_id, arrival.traits, clock_.now(),
      profile);
  network_->add_node(node.get());
  node->start();
  spawn_times_[id] = clock_.now();
  spawn_index_.emplace(id, static_cast<std::uint32_t>(spawn_index_.size()));
  live_.push_back(node.get());
  vehicles_[id] = std::move(node);
  ++position_epoch_;  // the new vehicle must show up in sensor queries
}

void World::spawn_legacy(const traffic::Arrival& arrival, VehicleId id) {
  LegacyVehicle l;
  l.route_id = arrival.route_id;
  l.traits = arrival.traits;
  l.s = 0;
  // Legacy drivers cruise conservatively through unfamiliar smart junctions.
  l.cruise = std::min(arrival.initial_speed_mps,
                      0.6 * intersection_.config().limits.speed_limit_mps);
  l.v = l.cruise;
  legacy_[id] = l;
  spawn_times_[id] = clock_.now();
  ++position_epoch_;  // legacy vehicles are sensor-visible from spawn
}

void World::record_exit(const ExitRecord& rec) {
  if (exit_log_enabled_) exit_log_.push_back(rec);
}

void World::inject_vehicle(VehicleId id, int route_id,
                           const traffic::VehicleTraits& traits,
                           double speed_mps,
                           const protocol::VehicleAttackProfile& attack) {
  assert(!vehicles_.contains(id) && !legacy_.contains(id));
  // The ground-truth roster travels with the vehicle: a deviator stays a
  // deviator downstream (its trigger may already be in the past), and the
  // metrics classification keeps seeing it as malicious.
  if (attack.role != VehicleRole::kBenign) {
    malicious_ids_.insert(id);
    attack_roles_[id] = attack;
  }
  traffic::Arrival arrival;
  arrival.time = clock_.now();
  arrival.route_id = route_id;
  arrival.traits = traits;
  arrival.initial_speed_mps = speed_mps;
  metrics_.vehicles_spawned++;
  spawn(arrival, id);
  // Handoffs enter at their carried exit speed (spawn() starts at rest),
  // clamped to this intersection's limit.
  vehicles_.at(id)->seed_speed(
      std::min(speed_mps, intersection_.config().limits.speed_limit_mps));
  ++position_epoch_;  // the scene's observation carries the seeded speed
}

void World::inject_legacy(VehicleId id, int route_id,
                          const traffic::VehicleTraits& traits,
                          double speed_mps) {
  assert(!vehicles_.contains(id) && !legacy_.contains(id));
  traffic::Arrival arrival;
  arrival.time = clock_.now();
  arrival.route_id = route_id;
  arrival.traits = traits;
  arrival.initial_speed_mps = speed_mps;
  spawn_legacy(arrival, id);
}

bool World::import_blacklist(VehicleId suspect) {
  return im_->import_blacklist(suspect, clock_.now());
}

std::size_t World::arrival_count(const ScenarioConfig& config) {
  // Mirrors the constructor's arrival draw exactly: Rng::fork derives the
  // child stream from the seed alone (not the parent's position), so the
  // signer's draws in between cannot perturb it.
  const traffic::Intersection intersection =
      traffic::Intersection::build(config.intersection);
  traffic::ArrivalGenerator gen(intersection, config.vehicles_per_minute,
                                Rng(config.seed).fork(1));
  return gen.generate(config.duration_ms).size();
}

geom::Vec2 World::legacy_position(const LegacyVehicle& l) const {
  return intersection_.route(l.route_id).path.point_at(l.s);
}

traffic::VehicleStatus World::legacy_status(const LegacyVehicle& l) const {
  traffic::VehicleStatus st;
  st.position = legacy_position(l);
  st.speed_mps = l.v;
  st.heading_rad = intersection_.route(l.route_id).path.heading_at(l.s);
  return st;
}

void World::step_legacy(Duration dt_ms) {
  if (legacy_.empty()) return;
  const double dt = static_cast<double>(dt_ms) / 1000.0;
  const auto& limits = intersection_.config().limits;
  // Simple car-following: brake for the nearest vehicle ahead on the same
  // route, so each follower scans only its route's bucket. Managed vehicles
  // do not move during this phase, so their progress is read once; legacy
  // neighbours are read live, and earlier ones have already moved this step
  // — exactly what a scan over every vehicle in id order sees, since the
  // gap is a min that no bucket order can change.
  follow_routes_.resize(intersection_.routes().size());
  for (FollowRoute& route : follow_routes_) {
    route.managed_s.clear();
    route.legacy.clear();
  }
  for (const protocol::VehicleNode* v : live_) {
    follow_routes_[static_cast<std::size_t>(v->route_id())].managed_s.push_back(
        v->progress_s());
  }
  for (const auto& [id, l] : legacy_) {
    if (!l.exited) follow_routes_[l.route_id].legacy.push_back(&l);
  }
  for (auto& [id, l] : legacy_) {
    if (l.exited) continue;
    const FollowRoute& route = follow_routes_[l.route_id];
    double gap = 1e9;
    for (const double s : route.managed_s) {
      const double ds = s - l.s;
      if (ds > 0.1) gap = std::min(gap, ds);
    }
    for (const LegacyVehicle* o : route.legacy) {
      if (o == &l || o->exited) continue;
      const double ds = o->s - l.s;
      if (ds > 0.1) gap = std::min(gap, ds);
    }
    double target = l.cruise;
    if (gap < 45.0) target = std::min(target, 0.35 * std::max(0.0, gap - 10.0));
    if (l.v < target) {
      l.v = std::min(l.v + limits.max_accel_mps2 * dt, target);
    } else {
      l.v = std::max(l.v - limits.max_decel_mps2 * dt, target);
    }
    l.s += l.v * dt;
    if (l.s >= intersection_.route(l.route_id).path.length() - 0.05) {
      l.exited = true;
      record_exit({.id = id, .route_id = l.route_id, .exit_time = clock_.now(),
                   .speed_mps = l.v, .traits = l.traits, .attack = {}, .legacy = true});
    }
  }
  ++position_epoch_;  // legacy vehicles moved
}

void World::step_world(Tick now) {
  const Duration dt = config_.step_ms;
  const auto watch_every =
      std::max<Tick>(1, protocol::kWatchIntervalMs / config_.step_ms);
  const Tick step_index = now / config_.step_ms;

  // Per-phase profiling: one 'X' span per phase per step, sim-duration 0
  // (nothing inside a step advances sim time) with the wall cost in the
  // explicitly non-deterministic wall_us argument. Wall clocks are read only
  // when tracing, so disabled runs pay one flag check per step.
  const bool tracing = tracer_.enabled();
  std::chrono::steady_clock::time_point t0;
  const auto phase_begin = [&] {
    if (tracing) t0 = std::chrono::steady_clock::now();
  };
  const auto phase_end = [&](const char* name, std::int64_t items) {
    if (tracing) trace_span(name, now, t0, items);
  };

  phase_begin();
  step_legacy(dt);
  phase_end("phase.legacy", static_cast<std::int64_t>(legacy_.size()));

  // Phase 1: physics for everyone, so watchers later observe a consistent
  // time-t snapshot regardless of iteration order.
  phase_begin();
  step_physics(now, dt);
  phase_end("phase.physics", static_cast<std::int64_t>(vehicles_.size()));

  // Phase 2: the neighbourhood watch, staggered to avoid synchronized bursts.
  phase_begin();
  step_watch(now, step_index, watch_every);
  phase_end("phase.watch", static_cast<std::int64_t>(vehicles_.size()));

  // Ground-truth proximity audit once per simulated second (managed and
  // legacy vehicles alike; the staging area is excluded).
  if (now % 1000 == 0) {
    phase_begin();
    const std::size_t audited = step_gap_audit();
    phase_end("phase.gap_audit", static_cast<std::int64_t>(audited));
  }
}

void World::step_physics(Tick now, Duration dt) {
  // In id order, so a vehicle whose step senses (a degraded vehicle checking
  // the conflict box) sees lower ids moved and higher ids not yet, and the
  // exit bookkeeping commits in id order.
  in_physics_ = true;
  for (auto& [id, v] : vehicles_) {
    if (v->exited()) continue;
    v->step(now, dt);
    if (v->exited()) {
      network_->remove_node(v->node_id());
      std::erase(live_, v.get());
      crossing_times_.push_back(now - spawn_times_[id]);
      record_exit({.id = id, .route_id = v->route_id(), .exit_time = now,
                   .speed_mps = v->speed_mps(), .traits = v->traits(),
                   .attack = v->attack_profile()});
    }
  }
  in_physics_ = false;
  ++position_epoch_;  // managed vehicles moved
}

void World::step_watch(Tick now, Tick step_index, Tick watch_every) {
  // Split watch: collect due watchers, run every watcher's pure half (the
  // sensor sweep and Algorithm 2's decisions) on the pool, then commit every
  // watch serially in id order. A commit only mutates its own protocol state
  // and sends latency-delayed messages (delivered by a later queue run even
  // at zero latency), so no commit can change what another watcher senses or
  // decides — the serial per-vehicle watch and this split produce identical
  // runs.
  last_step_allocs_ = {};
  watch_due_.clear();
  for (auto& [id, vehicle] : vehicles_) {
    if (vehicle->exited()) continue;
    if ((step_index + static_cast<Tick>(id.value)) % watch_every != 0) continue;
    if (!vehicle->watch_due(now)) continue;
    watch_due_.push_back(vehicle.get());
  }
  if (watch_due_.empty()) return;
  // Build the scene once, serially, so the concurrent scans only read it,
  // and give every watch room for the whole scene: a sweep returns at most
  // one observation (and one action) per scene row, so no scan grows a
  // buffer on the pool.
  if (sense_built_epoch_ != position_epoch_) rebuild_sense_scene();
  const std::size_t n = watch_due_.size();
  if (watch_scratch_.size() < n) watch_scratch_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    watch_scratch_[k].observations.reserve(sense_scene_.size());
    watch_scratch_[k].actions.reserve(sense_scene_.size());
  }

  // Spans inside phase.watch, wall time read only when tracing like the
  // phase spans: the scan counts sensed pairs, the commit its actions.
  const bool tracing = tracer_.enabled();
  std::chrono::steady_clock::time_point t0;
  if (tracing) t0 = std::chrono::steady_clock::now();
  // Meter only the chunked scan kernel: the serial commits below are
  // protocol actions (reports, block requests) that allocate by design.
  const std::uint64_t allocs0 =
      util::alloc_counting_enabled() ? util::process_alloc_count() : 0;
  step_pool_.parallel_for(n, kWatchChunk, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      watch_due_[k]->watch_scan(now, watch_scratch_[k]);
    }
  });
  if (util::alloc_counting_enabled()) {
    last_step_allocs_.watch = util::process_alloc_count() - allocs0;
  }
  if (tracing) {
    std::int64_t pairs = 0;
    for (std::size_t k = 0; k < n; ++k) {
      pairs += static_cast<std::int64_t>(watch_scratch_[k].observations.size());
    }
    trace_span("watch.scan", now, t0, pairs);
    t0 = std::chrono::steady_clock::now();
  }
  for (std::size_t k = 0; k < n; ++k) {
    watch_due_[k]->watch_emit(now, watch_scratch_[k]);
  }
  if (tracing) {
    std::int64_t actions = 0;
    for (std::size_t k = 0; k < n; ++k) {
      actions += static_cast<std::int64_t>(watch_scratch_[k].actions.size());
    }
    trace_span("watch.commit", now, t0, actions);
  }
}

void World::trace_span(const char* name, Tick now,
                       std::chrono::steady_clock::time_point t0,
                       std::int64_t items) {
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  tracer_.complete("sim", name, now, now, wall_us, "items", items);
}

std::size_t World::step_gap_audit() {
  audit_probes_.clear();
  audit_probes_.reserve(vehicles_.size() + legacy_.size());
  for (const auto& [id, v] : vehicles_) {
    // Degraded vehicles (moving without a plan) are audited too: their
    // sensor-gated crossing must not collide with managed traffic.
    if (!v->exited() && (v->has_plan() || v->progress_s() > 0.5)) {
      // A stationary vehicle pulled fully onto the shoulder outside the
      // core (a waiting degraded vehicle, a parked self-evacuee) is out
      // of traffic: near the junction mouth the shoulder inevitably runs
      // close to neighbouring lanes, so other routes' traffic may pass it
      // within lane width. Same-route traffic and anything inside the
      // core still audit against it at full strictness.
      const auto& route = intersection_.route(v->route_id());
      const bool parked_off =
          v->speed_mps() < 0.5 && std::abs(v->lateral_offset_m()) >= 3.0 &&
          (v->progress_s() < route.core_begin ||
           v->progress_s() > route.core_end);
      audit_probes_.push_back(
          AuditProbe{v->position(), v->progress_s(), v->route_id(), parked_off});
    }
  }
  for (const auto& [id, l] : legacy_) {
    if (!l.exited) {
      audit_probes_.push_back(AuditProbe{legacy_position(l), l.s, l.route_id});
    }
  }
  // The first 30 m of every route is the staging area at the edge of
  // the communication zone: vehicles planned in the same processing
  // window depart together from there and separate as their assigned
  // speeds diverge. Only positions past staging are audited.
  const auto violates = [](const AuditProbe& a, const AuditProbe& b) {
    if (a.s < 30.0 && b.s < 30.0) return false;
    if ((a.parked_off_lane || b.parked_off_lane) && a.route != b.route) {
      return false;
    }
    return a.pos.distance_to(b.pos) < 1.5;
  };
  const std::size_t n = audit_probes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (violates(audit_probes_[i], audit_probes_[j])) ++gap_violations_;
    }
  }
  return n;
}

void World::run_until(Tick t) {
  const bool tracing = tracer_.enabled();
  while (stepped_until_ < t) {
    stepped_until_ += config_.step_ms;
    if (tracing) {
      using wall_clock = std::chrono::steady_clock;
      const auto t0 = wall_clock::now();
      queue_.run_until(stepped_until_, clock_);
      const double wall_us =
          std::chrono::duration<double, std::micro>(wall_clock::now() - t0)
              .count();
      tracer_.complete("sim", "phase.events", stepped_until_, stepped_until_,
                       wall_us);
    } else {
      queue_.run_until(stepped_until_, clock_);
    }
    step_world(stepped_until_);
    steps_counter_.inc();
    if (step_listener_) step_listener_(stepped_until_);
  }
}

RunSummary World::run() {
  run_until(config_.duration_ms);
  return summary();
}

RunSummary World::summary() const {
  RunSummary s;
  s.metrics = metrics_;
  s.net_stats = network_->stats();

  // Fold the pre-existing silos into the snapshot so it carries the whole
  // run (docs/OBSERVABILITY.md). Everything folded is an integer read from
  // sim state; the wall-clock vectors (im_package_us, vehicle_verify_us)
  // deliberately stay out so two identical seeded runs produce
  // byte-identical snapshot JSON.
  s.metrics_snapshot = registry_.snapshot();
  auto& gauges = s.metrics_snapshot.gauges;
  const auto gauge = [&gauges](const char* name, std::int64_t v) {
    gauges[name] = v;
  };
  gauge("protocol.vehicles_spawned", metrics_.vehicles_spawned);
  gauge("protocol.vehicles_exited", metrics_.vehicles_exited);
  gauge("protocol.incident_reports", metrics_.incident_reports);
  gauge("protocol.global_reports", metrics_.global_reports);
  gauge("protocol.verify_rounds", metrics_.verify_rounds);
  gauge("protocol.alarm_dismissals", metrics_.alarm_dismissals);
  gauge("protocol.evacuation_alerts", metrics_.evacuation_alerts);
  gauge("protocol.benign_self_evacuations", metrics_.benign_self_evacuations);
  gauge("protocol.false_alarm_evacuations", metrics_.false_alarm_evacuations);
  gauge("protocol.malicious_reports_recorded",
        metrics_.malicious_reports_recorded);
  gauge("protocol.blocks_published", metrics_.blocks_published);
  gauge("protocol.block_verification_failures",
        metrics_.block_verification_failures);
  gauge("protocol.plan_request_retries", metrics_.plan_request_retries);
  gauge("protocol.gap_block_requests", metrics_.gap_block_requests);
  gauge("protocol.degraded_entries", metrics_.degraded_entries);
  gauge("protocol.degraded_crossings", metrics_.degraded_crossings);
  gauge("protocol.im_crashes", metrics_.im_crashes);
  gauge("protocol.im_restarts", metrics_.im_restarts);
  gauge("protocol.im_courtesy_gaps", metrics_.im_courtesy_gaps);
  const auto event_gauge = [&gauges](const char* name,
                                     const std::optional<Tick>& t) {
    if (t) gauges[name] = *t;
  };
  event_gauge("protocol.event.violation_start_ms", metrics_.violation_start);
  event_gauge("protocol.event.first_true_incident_ms",
              metrics_.first_true_incident);
  event_gauge("protocol.event.deviation_confirmed_ms",
              metrics_.deviation_confirmed);
  event_gauge("protocol.event.false_incident_injected_ms",
              metrics_.false_incident_injected);
  event_gauge("protocol.event.false_incident_dismissed_ms",
              metrics_.false_incident_dismissed);
  event_gauge("protocol.event.false_global_injected_ms",
              metrics_.false_global_injected);
  event_gauge("protocol.event.false_global_detected_ms",
              metrics_.false_global_detected);
  event_gauge("protocol.event.im_conflict_injected_ms",
              metrics_.im_conflict_injected);
  event_gauge("protocol.event.im_conflict_detected_ms",
              metrics_.im_conflict_detected);
  event_gauge("protocol.event.sham_alert_detected_ms",
              metrics_.sham_alert_detected);
  const crypto::SigVerifyCache::Stats cache = verify_cache_.stats();
  gauge("crypto.sig_cache.hits", static_cast<std::int64_t>(cache.hits));
  gauge("crypto.sig_cache.misses", static_cast<std::int64_t>(cache.misses));
  gauge("crypto.sig_cache.insertions",
        static_cast<std::int64_t>(cache.insertions));
  gauge("crypto.sig_cache.evictions",
        static_cast<std::int64_t>(cache.evictions));
  const double minutes = ticks_to_seconds(stepped_until_ > 0 ? stepped_until_ : 1) / 60.0;
  s.throughput_vpm = metrics_.vehicles_exited / std::max(minutes, 1e-9);
  double total = 0;
  for (Duration d : crossing_times_) total += static_cast<double>(d);
  s.mean_crossing_ms =
      crossing_times_.empty() ? 0 : total / static_cast<double>(crossing_times_.size());
  s.active_at_end = static_cast<int>(live_.size());
  s.min_ground_truth_gap_violations = gap_violations_;
  s.legacy_spawned = static_cast<int>(legacy_.size());
  for (const auto& [id, l] : legacy_) s.legacy_exited += l.exited ? 1 : 0;
  return s;
}

void World::rebuild_sense_scene() const {
  // Managed vehicles in spawn order, then legacy vehicles in id order: the
  // order every sense reports. live_ drops a vehicle the moment it exits,
  // and exit is permanent, so the walk never meets an exited node.
  sense_scene_.clear();
  for (const protocol::VehicleNode* v : live_) {
    sense_scene_.push_back(
        SceneRow{protocol::Observation{v->id(), v->traits(), v->ground_truth()},
                 v, nullptr});
  }
  for (const auto& [id, l] : legacy_) {
    if (l.exited) continue;
    sense_scene_.push_back(
        SceneRow{protocol::Observation{id, l.traits, legacy_status(l)}, nullptr,
                 &l});
  }
  sense_built_epoch_ = position_epoch_;
}

void World::sense_around_into(geom::Vec2 center, double radius,
                              VehicleId exclude,
                              std::vector<protocol::Observation>& out) const {
  out.clear();
  if (in_physics_ || sense_built_epoch_ != position_epoch_) rebuild_sense_scene();
  // The scene's observations are the live ground truth (nothing moved since
  // the rebuild), so the range test reads them; liveness and visibility,
  // which events change without moving anything, are read live.
  for (const SceneRow& row : sense_scene_) {
    if (row.obs.id == exclude) continue;
    if (row.obs.status.position.distance_to(center) > radius) continue;
    if (row.node != nullptr) {
      // Vehicles still staged at the zone edge (no plan, not yet moving) are
      // invisible; a plan-less vehicle that moves — degraded mode — must be
      // seen so watchers and the IM's unmanaged tracking can cover it.
      if (!row.node->has_plan() && row.node->progress_s() <= 0.5) continue;
      if (row.node->exited()) continue;
    } else if (row.legacy->exited) {
      continue;
    }
    out.push_back(row.obs);
  }
}

std::optional<protocol::Observation> World::observe(VehicleId id) const {
  if (const auto it = vehicles_.find(id); it != vehicles_.end()) {
    if (it->second->exited()) return std::nullopt;
    return protocol::Observation{id, it->second->traits(),
                                 it->second->ground_truth()};
  }
  if (const auto it = legacy_.find(id); it != legacy_.end()) {
    if (it->second.exited) return std::nullopt;
    return protocol::Observation{id, it->second.traits,
                                 legacy_status(it->second)};
  }
  return std::nullopt;
}

protocol::VehicleNode* World::vehicle(VehicleId id) {
  const auto it = vehicles_.find(id);
  return it == vehicles_.end() ? nullptr : it->second.get();
}

std::vector<VehicleId> World::vehicle_ids() const {
  std::vector<VehicleId> out;
  out.reserve(vehicles_.size());
  for (const auto& [id, v] : vehicles_) out.push_back(id);
  return out;
}

}  // namespace nwade::sim
