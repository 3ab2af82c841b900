#include "nwade/vehicle_node.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <chrono>
#include <cstdlib>

#include "util/log.h"

namespace nwade::protocol {

namespace {

/// Wall-clock microseconds between two steady_clock points.
double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

/// Checks the required context pointers, then claims the node's SoA row.
/// Runs from the member-initializer list, before anything dereferences them.
std::size_t claim_kin_row(const VehicleContext& ctx, VehicleId id,
                          int route_id) {
  assert(ctx.intersection && ctx.config && ctx.network && ctx.clock &&
         ctx.sensors && ctx.metrics && ctx.malicious_ids && ctx.columns);
  return ctx.columns->add_row(id.value, static_cast<std::uint32_t>(route_id));
}

}  // namespace

const char* vehicle_state_name(VehicleState s) {
  switch (s) {
    case VehicleState::kPreparation: return "preparation";
    case VehicleState::kBlockVerification: return "block_verification";
    case VehicleState::kTraveling: return "traveling";
    case VehicleState::kLocalVerification: return "local_verification";
    case VehicleState::kAwaitingResponse: return "awaiting_response";
    case VehicleState::kGlobalVerification: return "global_verification";
    case VehicleState::kSelfEvacuation: return "self_evacuation";
    case VehicleState::kDegraded: return "degraded";
    case VehicleState::kExited: return "exited";
  }
  return "?";
}

VehicleNode::VehicleNode(VehicleContext ctx, VehicleId id, int route_id,
                         traffic::VehicleTraits traits, Tick spawn_time,
                         VehicleAttackProfile attack)
    : ctx_(ctx),
      id_(id),
      route_id_(route_id),
      traits_(traits),
      spawn_time_(spawn_time),
      attack_(attack),
      kin_row_(claim_kin_row(ctx_, id, route_id)),
      s_(ctx_.columns->s[kin_row_]),
      v_(ctx_.columns->v[kin_row_]),
      lateral_offset_(ctx_.columns->lateral[kin_row_]),
      store_(ctx.config->chain_depth) {
  // Sized so a fresh vehicle's first watch scans don't grow the buffer from
  // inside the chunked scan kernel, which is gated allocation-free.
  obs_scratch_.reserve(64);
}

void VehicleNode::trace_instant(const char* cat, const char* name,
                                Tick now) const {
  if (ctx_.tracer == nullptr || !util::trace::tracing_active()) return;
  ctx_.tracer->instant(cat, name, now, "vehicle",
                       static_cast<std::int64_t>(id_.value));
}

geom::Vec2 VehicleNode::position() const {
  const auto& route = ctx_.intersection->route(route_id_);
  const geom::Vec2 on_path = route.path.point_at(s_);
  if (lateral_offset_ == 0.0) return on_path;
  const geom::Vec2 normal = route.path.tangent_at(s_).perp();
  return on_path + normal * lateral_offset_;
}

traffic::VehicleStatus VehicleNode::ground_truth() const {
  traffic::VehicleStatus st;
  st.position = position();
  st.speed_mps = v_;
  st.heading_rad = ctx_.intersection->route(route_id_).path.heading_at(s_);
  return st;
}

void VehicleNode::start() {
  send_plan_request();
  // The first retransmission fires once the IM had a full processing window
  // plus dissemination time to answer; later retries back off exponentially.
  next_plan_request_at_ = spawn_time_ + 2 * ctx_.config->processing_window_ms;
  set_state(VehicleState::kPreparation);
}

void VehicleNode::send_plan_request() {
  auto req = std::make_shared<PlanRequest>();
  req->vehicle = id_;
  req->route_id = route_id_;
  req->traits = traits_;
  req->status = ground_truth();
  ctx_.network->unicast(node_id(), kImNodeId, std::move(req));
}

void VehicleNode::retry_plan_request(Tick now) {
  if (plan_retries_ >= ctx_.config->plan_request_max_retries) {
    // Degraded mode is for an IM that looks dead from here. If block
    // broadcasts are still reaching us, the IM is alive but withholding
    // issuance (e.g. a courtesy gap draining the junction) — keep polling at
    // the capped rate instead of falling back to sensors.
    const bool chain_alive =
        last_block_seen_at_ > 0 &&
        now - last_block_seen_at_ <= ctx_.config->plan_request_backoff_cap_ms;
    if (state_ == VehicleState::kPreparation && !chain_alive) enter_degraded(now);
    // Already degraded at the spawn point: keep polling at the capped rate in
    // case the IM comes back before we commit to crossing on sensors alone.
    send_plan_request();
    next_plan_request_at_ = now + ctx_.config->plan_request_backoff_cap_ms;
    return;
  }
  ++plan_retries_;
  ctx_.metrics->plan_request_retries++;
  send_plan_request();
  Duration backoff = ctx_.config->plan_request_backoff_ms;
  for (int i = 1; i < plan_retries_; ++i) backoff *= 2;
  backoff = std::min(backoff, ctx_.config->plan_request_backoff_cap_ms);
  next_plan_request_at_ = now + backoff;
}

void VehicleNode::set_state(VehicleState next) {
  state_ = next;
  // Mirror liveness into the SoA active flag so column-streaming kernels
  // (the sense-grid rebuild) can skip exited rows without touching the node.
  ctx_.columns->active[kin_row_] =
      next == VehicleState::kExited ? std::uint8_t{0} : std::uint8_t{1};
}

int VehicleNode::adaptive_threshold() const {
  return std::max(ctx_.config->global_report_threshold, sensed_neighbours_ / 2 + 1);
}

// --- physics -------------------------------------------------------------------

void VehicleNode::step(Tick now, Duration dt_ms) {
  if (state_ == VehicleState::kExited) return;
  const auto& route = ctx_.intersection->route(route_id_);
  const auto& limits = ctx_.intersection->config().limits;
  const double dt = static_cast<double>(dt_ms) / 1000.0;

  const bool deviating = attack_.role == VehicleRole::kDeviator &&
                         now >= attack_.trigger_at && plan_.has_value();
  if (deviating) {
    if (!attack_fired_) {
      attack_fired_ = true;
      if (!ctx_.metrics->violation_start) ctx_.metrics->violation_start = now;
      // Start the physical deviation from the plan's current state.
      s_ = plan_->s_at(now);
      v_ = plan_->v_at(now);
    }
    if (attack_.deviation == DeviationMode::kAccelerate) {
      v_ = std::min(v_ + limits.max_accel_mps2 * dt, 1.3 * limits.speed_limit_mps);
      // A sudden lane change accompanies the speed attack (paper Fig. 1a).
      lateral_offset_ = std::min(lateral_offset_ + 1.2 * dt, 3.5);
    } else {
      v_ = std::max(v_ - limits.max_decel_mps2 * dt, 0.0);
    }
    s_ += v_ * dt;
  } else if (state_ == VehicleState::kSelfEvacuation) {
    if (s_ < route.core_begin - 5.0) {
      // Pull over before the junction: brake and move onto the shoulder so
      // watchers can tell a parked evacuee from an in-lane blocker.
      v_ = std::max(v_ - limits.max_decel_mps2 * dt, 0.0);
      lateral_offset_ = std::min(lateral_offset_ + 1.0 * dt, 3.5);
    } else if (s_ < route.core_end) {
      // Already inside: clear the core promptly but carefully.
      v_ = std::max(v_, 0.4 * limits.speed_limit_mps);
    } else {
      v_ = std::min(v_ + limits.max_accel_mps2 * dt, limits.speed_limit_mps);
    }
    s_ += v_ * dt;
  } else if (state_ == VehicleState::kDegraded) {
    step_degraded(now, dt, route);
  } else if (plan_) {
    s_ = plan_->s_at(now);
    v_ = plan_->v_at(now);
  }
  // else: preparation — hold at the communication-zone edge.

  if (s_ >= route.path.length() - 0.05) {
    if (state_ == VehicleState::kDegraded) ctx_.metrics->degraded_crossings++;
    set_state(VehicleState::kExited);
    ctx_.metrics->vehicles_exited++;
    return;
  }

  // Incident-report timeout: the IM never answered (Alg. 2 line 12).
  if (state_ == VehicleState::kAwaitingResponse && now >= awaiting_deadline_) {
    if (self_evac_announced_.contains(awaiting_suspect_) ||
        confirmed_threats_.contains(awaiting_suspect_) ||
        dismissed_suspects_.contains(awaiting_suspect_)) {
      // The deviation got explained while we waited (announcement, alert, or
      // dismissal that raced our own report): stand down.
      set_state(VehicleState::kTraveling);
    } else if (awaiting_retries_ < 1) {
      // One retransmission before declaring the IM compromised: a single
      // lost packet must not trigger an evacuation.
      ++awaiting_retries_;
      if (const auto obs = ctx_.sensors->observe(awaiting_suspect_)) {
        const auto dev = deviation_of(*obs, now);
        if (dev && *dev > ctx_.config->deviation_tolerance_m) {
          reported_suspects_.erase(awaiting_suspect_);
          report_incident(*obs, *dev, now);
        } else {
          set_state(VehicleState::kTraveling);  // deviation resolved itself
        }
      } else {
        set_state(VehicleState::kTraveling);  // suspect left the scene
      }
    } else {
      enter_self_evacuation(GlobalReason::kImUnresponsive, awaiting_suspect_, now);
    }
  }

  // Plan never arrived (lost packets or dark IM): retransmit with capped
  // exponential backoff, then fall back to degraded mode. A degraded vehicle
  // keeps polling only while it still waits at the spawn point — once it is
  // moving on sensors alone, a late plan (computed from the spawn point)
  // would no longer describe it.
  if (!plan_ && now >= next_plan_request_at_ &&
      (state_ == VehicleState::kPreparation ||
       (state_ == VehicleState::kDegraded && s_ < 1.0))) {
    retry_plan_request(now);
  }

  // While self-evacuating, re-broadcast the warning every few seconds so
  // vehicles that enter the zone later also learn this deviation from the
  // (stale) chain plan is announced, not an attack.
  if (state_ == VehicleState::kSelfEvacuation &&
      now - last_beacon_at_ >= kBeaconPeriodMs && global_report_sent_) {
    last_beacon_at_ = now;
    auto gr = std::make_shared<GlobalReport>();
    gr->reporter = id_;
    gr->reason = last_evac_reason_;
    gr->suspect = last_evac_suspect_;
    ctx_.network->broadcast(node_id(), std::move(gr));
    ctx_.metrics->global_reports++;
    trace_instant("nwade", "global_report", now);
  }
}

bool VehicleNode::step_has_side_effects(Tick now) const {
  // Mirrors step()'s branch structure on the vehicle's own pre-step state.
  // Physics itself only moves s_/v_/lateral_offset_, so none of these
  // conditions can flip between classification and the post-physics checks
  // inside step() — except the exit latch, which step_kinematics() handles.
  if (state_ == VehicleState::kExited) return false;  // step() is a no-op
  // Deviators are impure from the start (the trigger latch fires the
  // violation metric); they are a handful per scenario, so being
  // conservative here costs nothing.
  if (attack_.role == VehicleRole::kDeviator) return true;
  // Degraded crossing senses the conflict box and counts its own metrics.
  if (state_ == VehicleState::kDegraded) return true;
  // Incident-report timeout: observes, re-reports, or self-evacuates.
  if (state_ == VehicleState::kAwaitingResponse && now >= awaiting_deadline_) {
    return true;
  }
  // Plan-request retransmission sends (the kDegraded arm of the condition is
  // subsumed by the kDegraded check above).
  if (!plan_ && now >= next_plan_request_at_ &&
      state_ == VehicleState::kPreparation) {
    return true;
  }
  // Periodic self-evacuation beacon broadcasts.
  if (state_ == VehicleState::kSelfEvacuation && global_report_sent_ &&
      now - last_beacon_at_ >= kBeaconPeriodMs) {
    return true;
  }
  return false;
}

bool VehicleNode::step_kinematics(Tick now, Duration dt_ms) {
  assert(!step_has_side_effects(now));
  const auto& route = ctx_.intersection->route(route_id_);
  const auto& limits = ctx_.intersection->config().limits;
  const double dt = static_cast<double>(dt_ms) / 1000.0;

  // The side-effect-free subset of step()'s physics branches: no deviation
  // latch (deviators are classified impure), no degraded mode.
  if (state_ == VehicleState::kSelfEvacuation) {
    if (s_ < route.core_begin - 5.0) {
      v_ = std::max(v_ - limits.max_decel_mps2 * dt, 0.0);
      lateral_offset_ = std::min(lateral_offset_ + 1.0 * dt, 3.5);
    } else if (s_ < route.core_end) {
      v_ = std::max(v_, 0.4 * limits.speed_limit_mps);
    } else {
      v_ = std::min(v_ + limits.max_accel_mps2 * dt, limits.speed_limit_mps);
    }
    s_ += v_ * dt;
  } else if (plan_) {
    s_ = plan_->s_at(now);
    v_ = plan_->v_at(now);
  }
  // else: preparation — hold at the communication-zone edge.

  if (s_ >= route.path.length() - 0.05) {
    // The caller's fixed-order merge owns the bookkeeping the full step()
    // would have done here (exited metric, network removal, crossing time);
    // a side-effect-free vehicle cannot be kDegraded, so the degraded
    // crossing counter never applies on this path.
    set_state(VehicleState::kExited);
    return true;
  }
  return false;
}

// --- degraded mode (no plan after all retries) -----------------------------------

void VehicleNode::enter_degraded(Tick now) {
  if (state_ != VehicleState::kPreparation) return;
  set_state(VehicleState::kDegraded);
  degraded_committed_ = false;
  next_clear_check_at_ = now;
  // Pick the shoulder side with the most clearance from every other route's
  // path at the hold point: near the junction mouth lanes converge, and a
  // fixed side can park the vehicle squarely in an adjacent route's lane.
  const auto& route = ctx_.intersection->route(route_id_);
  const double hold_s = std::max(route.core_begin - 6.0, 0.0);
  const geom::Vec2 base = route.path.point_at(hold_s);
  const geom::Vec2 normal = route.path.tangent_at(hold_s).perp();
  double best = -1.0;
  for (double side : {1.0, -1.0}) {
    const geom::Vec2 cand = base + normal * (3.5 * side);
    double clearance = std::numeric_limits<double>::max();
    for (const traffic::Route& r : ctx_.intersection->routes()) {
      if (r.id == route_id_) continue;
      const auto [dist, s_proj] = r.path.project(cand);
      (void)s_proj;
      clearance = std::min(clearance, dist);
    }
    if (clearance > best) {
      best = clearance;
      shoulder_side_ = side;
    }
  }
  ctx_.metrics->degraded_entries++;
  trace_instant("nwade", "degraded_enter", now);
  NWADE_LOG(kInfo) << "vehicle " << id_.value
                   << " entering degraded mode (no plan after " << plan_retries_
                   << " retries)";
}

bool VehicleNode::degraded_box_clear(Tick now) const {
  (void)now;
  const auto& route = ctx_.intersection->route(route_id_);
  // Project our own crossing: from the current position to past the core at
  // the creep speed, plus the configured safety margin.
  const double cross_dist = std::max(route.core_end - s_, 0.0) + 5.0;
  const double time_to_clear_s =
      cross_dist / std::max(ctx_.config->degraded_cross_speed_mps, 0.5) +
      static_cast<double>(ctx_.config->degraded_clear_margin_ms) / 1000.0;

  // Sample the conflict-relevant span of our route; any other vehicle that
  // could reach it before we clear it keeps the box "occupied".
  std::vector<geom::Vec2> samples;
  for (double s = route.core_begin; s <= route.core_end; s += 5.0) {
    samples.push_back(route.path.point_at(s));
  }
  samples.push_back(route.path.point_at(route.core_end));

  const double limit_mps = ctx_.intersection->config().limits.speed_limit_mps;
  const auto observations =
      ctx_.sensors->sense_around(position(), ctx_.config->sensing_radius_m, id_);
  for (const Observation& obs : observations) {
    double dist_to_box = std::numeric_limits<double>::max();
    geom::Vec2 nearest{};
    for (const geom::Vec2& p : samples) {
      const double d = obs.status.position.distance_to(p);
      if (d < dist_to_box) {
        dist_to_box = d;
        nearest = p;
      }
    }
    if (dist_to_box < 8.0) return false;  // already in or at the box
    // A stopped or slow vehicle this close could launch into the box well
    // within our crossing window; anything further out needs time to spool up.
    if (dist_to_box < 20.0) return false;
    // Closing speed toward the box: vehicles heading away (the exit leg) can
    // never interfere, no matter how near they pass.
    const double closing =
        (std::cos(obs.status.heading_rad) * (nearest.x - obs.status.position.x) +
         std::sin(obs.status.heading_rad) * (nearest.y - obs.status.position.y)) /
        dist_to_box * obs.status.speed_mps;
    if (closing <= 0.5) continue;
    // Earliest possible arrival: assume the vehicle floors it to the speed
    // limit immediately (deviators may already exceed it — take the max).
    const double earliest_s =
        dist_to_box / std::max(limit_mps, obs.status.speed_mps);
    if (earliest_s < time_to_clear_s) return false;
  }
  return true;
}

void VehicleNode::step_degraded(Tick now, double dt, const traffic::Route& route) {
  const auto& limits = ctx_.intersection->config().limits;
  const double stop_at = route.core_begin - 6.0;

  if (s_ >= route.core_begin || degraded_committed_) {
    // Committed (or already inside): merge back into the lane and clear the
    // core at the creep speed, then open up on the exit leg.
    if (lateral_offset_ > 0) {
      lateral_offset_ = std::max(lateral_offset_ - 1.2 * dt, 0.0);
    } else {
      lateral_offset_ = std::min(lateral_offset_ + 1.2 * dt, 0.0);
    }
    const double target = s_ < route.core_end
                              ? ctx_.config->degraded_cross_speed_mps
                              : limits.speed_limit_mps;
    if (v_ < target) {
      v_ = std::min(v_ + limits.max_accel_mps2 * dt, target);
    } else {
      v_ = std::max(v_ - limits.max_decel_mps2 * dt, target);
    }
  } else if (s_ + v_ * v_ / (2.0 * limits.max_decel_mps2) + 2.0 >= stop_at) {
    // Inside braking distance of the stop line: stop and hold until the
    // sensors show the box clear (checked at a throttled cadence). The wait
    // happens on the shoulder, like a parked self-evacuee: managed plans
    // know nothing about an unplanned stationary vehicle, so holding in the
    // lane would put it in the path of same-route traffic.
    v_ = std::max(v_ - limits.max_decel_mps2 * dt, 0.0);
    if (shoulder_side_ > 0) {
      lateral_offset_ = std::min(lateral_offset_ + 1.0 * dt, 3.5);
    } else {
      lateral_offset_ = std::max(lateral_offset_ - 1.0 * dt, -3.5);
    }
    if (v_ < 0.3 && now >= next_clear_check_at_) {
      next_clear_check_at_ = now + 500;
      if (degraded_box_clear(now)) degraded_committed_ = true;
    }
  } else {
    // Cautious approach toward the stop line.
    v_ = std::min(v_ + limits.max_accel_mps2 * dt,
                  ctx_.config->degraded_approach_speed_mps);
  }
  s_ += v_ * dt;
}

// --- neighbourhood watch (Algorithm 2) -------------------------------------------

bool VehicleNode::watch_due(Tick now) const {
  (void)now;
  if (!ctx_.config->security_enabled) return false;
  if (state_ == VehicleState::kPreparation || state_ == VehicleState::kExited) {
    return false;
  }
  // A degraded vehicle never obtained (or kept) chain state to compare
  // neighbours against; it focuses on its own sensor-gated crossing.
  if (state_ == VehicleState::kDegraded) return false;
  // A self-evacuating vehicle focuses on leaving safely: it has written the
  // IM off, already broadcast its warning, and ignores further chain state,
  // so fresh incident reports from it would only compare against stale plans.
  if (state_ == VehicleState::kSelfEvacuation) return false;
  if (attack_.role == VehicleRole::kDeviator) return false;  // attackers don't help
  return true;
}

void VehicleNode::watch_scan(Tick now) {
  (void)now;
  ctx_.sensors->sense_around_into(position(), ctx_.config->sensing_radius_m, id_,
                                  obs_scratch_);
}

void VehicleNode::watch_emit(Tick now) {
  const std::vector<Observation>& observations = obs_scratch_;
  // The pre-split watch sensed after run_attack; both sweeps used identical
  // arguments against the same frozen scene, so handing run_attack the scan
  // result is observation-for-observation the same.
  if (attack_.role == VehicleRole::kFalseReporter) run_attack(now, observations);

  sensed_neighbours_ = static_cast<int>(observations.size());

  // Check a pending sham-evacuation suspicion first. Wait for the scene to
  // settle, and only cry sham when the "threat" is unambiguously on-plan —
  // a borderline reading must never discredit a correct alert.
  if (sham_check_suspect_ && now >= sham_check_after_) {
    for (const Observation& obs : observations) {
      if (obs.id != *sham_check_suspect_) continue;
      const auto dev = deviation_of(obs, now);
      if (dev && *dev < 0.5 * ctx_.config->deviation_tolerance_m) {
        // The "threat" behaves exactly per plan: the alert was a sham.
        auto report = std::make_shared<GlobalReport>();
        report->reporter = id_;
        report->reason = GlobalReason::kShamAlert;
        report->suspect = obs.id;
        report->suspect_status = obs.status;
        ctx_.network->broadcast(node_id(), std::move(report));
        ctx_.metrics->global_reports++;
        trace_instant("nwade", "global_report", now);
        if (!ctx_.metrics->sham_alert_detected) {
          ctx_.metrics->sham_alert_detected = now;
        }
      }
      sham_check_suspect_.reset();
      break;
    }
  }

  if (attack_.role != VehicleRole::kBenign) return;  // liars don't report truth

  const auto in_cooldown = [now](const std::map<VehicleId, Tick>& m, VehicleId id,
                                 Duration window) {
    const auto it = m.find(id);
    return it != m.end() && now - it->second < window;
  };
  for (const Observation& obs : observations) {
    if (in_cooldown(reported_suspects_, obs.id, kReportCooldownMs)) continue;
    if (in_cooldown(dismissed_suspects_, obs.id, kDismissCooldownMs)) continue;
    if (confirmed_threats_.contains(obs.id)) continue;
    if (self_evac_announced().contains(obs.id)) continue;

    // Legacy vehicles have no plan to violate; their chain entries are the
    // IM's virtual predictions, not commitments. Evacuation profiles are not
    // enforceable either (on-board collision avoidance governs during the
    // emergency maneuver), and neither is a plan issued moments ago: its
    // block may still be in flight — or lost and awaiting gap recovery — so
    // the neighbour cannot be expected to follow it yet.
    if (const aim::TravelPlan* p = lookup_plan(obs.id);
        p && (p->unmanaged || p->evacuation ||
              now - p->issued_at < ctx_.config->plan_grace_ms)) {
      continue;
    }

    const auto dev = deviation_of(obs, now);
    if (!dev) {
      request_plan_block(obs.id, now);
      continue;
    }
    if (*dev <= ctx_.config->deviation_tolerance_m) continue;
    // A stationary vehicle on the shoulder (well off its lane centreline) has
    // pulled over — self-evacuated or broken down — and is no threat. A
    // stationary vehicle still in the staging area at the communication-zone
    // edge is waiting for (or lost) its plan, not attacking.
    if (obs.status.speed_mps < 0.5) {
      if (const aim::TravelPlan* p = lookup_plan(obs.id)) {
        const auto& route = ctx_.intersection->route(p->route_id);
        const auto [lateral, s_proj] = route.path.project(obs.status.position);
        if (lateral > 2.5) continue;
        if (s_proj < 30.0) continue;
      }
    }
    if (state_ != VehicleState::kSelfEvacuation) {
      set_state(VehicleState::kLocalVerification);
    }
    report_incident(obs, *dev, now);
  }
}

const std::set<VehicleId>& VehicleNode::self_evac_announced() const {
  return self_evac_announced_;
}

const aim::TravelPlan* VehicleNode::lookup_plan(VehicleId vehicle) const {
  if (vehicle == id_) return plan_ ? &*plan_ : nullptr;
  if (const aim::TravelPlan* p = store_.find_plan(vehicle)) return p;
  const auto it = extra_plans_.find(vehicle);
  return it != extra_plans_.end() ? &it->second : nullptr;
}

void VehicleNode::request_plan_block(VehicleId vehicle, Tick now) {
  auto [it, fresh] = block_requests_inflight_.try_emplace(vehicle, now);
  if (!fresh) {
    if (now - it->second < 1000) return;  // rate-limit per target
    it->second = now;
  }
  auto req = std::make_shared<BlockRequest>();
  req->requester = id_;
  req->plan_of = vehicle;
  // Paper: "request the blocks from those vehicles in front of it" — a
  // unicast to one peer, not a broadcast. The subject itself holds the block
  // containing its own plan, so ask it directly; fall back to the IM.
  if (ctx_.network->has_node(vehicle_node(vehicle))) {
    ctx_.network->unicast(node_id(), vehicle_node(vehicle), std::move(req));
  } else {
    ctx_.network->unicast(node_id(), kImNodeId, std::move(req));
  }
}

std::optional<double> VehicleNode::deviation_of(const Observation& obs,
                                                Tick now) const {
  const aim::TravelPlan* plan = lookup_plan(obs.id);
  if (plan == nullptr) return std::nullopt;
  const auto& route = ctx_.intersection->route(plan->route_id);
  const traffic::VehicleStatus expected = plan->expected_status(route, now);
  return (obs.status.position - expected.position).norm();
}

void VehicleNode::report_incident(const Observation& obs, double deviation,
                                  Tick now) {
  if (std::getenv("NWADE_DEBUG_VEHICLE")) {
    const aim::TravelPlan* p = lookup_plan(obs.id);
    std::fprintf(stderr,
                 "REPORT t=%lld reporter=%llu suspect=%llu dev=%.1f plan_issued=%lld evac=%d unmanaged=%d route=%d s_exp=%.1f obs=(%.0f,%.0f) v=%.1f\n",
                 (long long)now, (unsigned long long)id_.value,
                 (unsigned long long)obs.id.value, deviation,
                 p ? (long long)p->issued_at : -1, p ? (int)p->evacuation : -1,
                 p ? (int)p->unmanaged : -1, p ? p->route_id : -1,
                 p ? p->s_at(now) : -1.0, obs.status.position.x,
                 obs.status.position.y, obs.status.speed_mps);
  }
  reported_suspects_[obs.id] = now;
  auto report = std::make_shared<IncidentReport>();
  report->reporter = id_;
  report->evidence.suspect = obs.id;
  report->evidence.observed = obs.status;
  report->evidence.observed_at = now;
  report->evidence.deviation_m = deviation;
  if (const auto* latest = store_.latest()) report->block_seq = latest->seq;
  ctx_.network->unicast(node_id(), kImNodeId, std::move(report));
  ctx_.metrics->incident_reports++;
  trace_instant("nwade", "incident_report", now);
  if (ctx_.malicious_ids->contains(obs.id) && !ctx_.metrics->first_true_incident) {
    ctx_.metrics->first_true_incident = now;
  }
  // A self-evacuating reporter keeps evacuating; it does not re-enter the
  // waiting state (it already gave up on the IM).
  if (state_ != VehicleState::kSelfEvacuation) {
    if (awaiting_suspect_ != obs.id) awaiting_retries_ = 0;
    awaiting_suspect_ = obs.id;
    awaiting_deadline_ = now + ctx_.config->im_response_timeout_ms;
    set_state(VehicleState::kAwaitingResponse);
  }
}

// --- message dispatch ------------------------------------------------------------

void VehicleNode::on_message(const net::Envelope& env) {
  if (state_ == VehicleState::kExited) return;
  const Tick now = ctx_.clock->now();
  if (const auto* bb = dynamic_cast<const BlockBroadcast*>(env.msg.get())) {
    if (bb->block) handle_block(*bb->block, now);
  } else if (const auto* br = dynamic_cast<const BlockRequest*>(env.msg.get())) {
    handle_block_request(*br, env.from);
  } else if (const auto* resp = dynamic_cast<const BlockResponse*>(env.msg.get())) {
    handle_block_response(*resp, now);
  } else if (const auto* vr = dynamic_cast<const VerifyRequest*>(env.msg.get())) {
    handle_verify_request(*vr, now);
  } else if (const auto* ad = dynamic_cast<const AlarmDismiss*>(env.msg.get())) {
    handle_alarm_dismiss(*ad, now);
  } else if (const auto* ea = dynamic_cast<const EvacuationAlert*>(env.msg.get())) {
    handle_evacuation_alert(*ea, now);
  } else if (const auto* gr = dynamic_cast<const GlobalReport*>(env.msg.get())) {
    handle_global_report(*gr, now);
  }
}

// --- Algorithm 1: block verification ----------------------------------------------

bool VehicleNode::verify_block(const chain::Block& block, Tick now, std::string* why) {
  // (i), (iii): signature, Merkle root, linkage — structural checks.
  const auto appended = store_.append(block, *ctx_.im_verifier);
  if (!appended) {
    switch (appended.error()) {
      case chain::ChainError::kNonMonotonicSeq: {
        const auto* latest = store_.latest();
        if (latest != nullptr && block.seq <= latest->seq) {
          return true;  // duplicate / reordered replay; harmless
        }
        // A gap: this vehicle missed blocks (burst loss, jitter reordering,
        // or joining mid-stream). Fetch the missed blocks from the IM — one
        // of them may carry our own superseding plan — then resync from this
        // block. Peers answer by-seq BlockRequests too, so gap recovery also
        // works while the IM is dark (handle_block_request).
        const auto missing = store_.missing_before(
            block.seq, static_cast<std::size_t>(ctx_.config->gap_request_limit));
        for (chain::BlockSeq seq : missing) {
          auto req = std::make_shared<BlockRequest>();
          req->requester = id_;
          req->by_seq = true;
          req->seq = seq;
          ctx_.network->unicast(node_id(), kImNodeId, std::move(req));
          ctx_.metrics->gap_block_requests++;
        }
        // The resync drops the cached prefix and the plans in it. That is
        // deliberate: the gap may hide reschedules, so judging neighbours
        // against the dropped (possibly stale) plans risks false incident
        // reports — the watch re-requests fresh blocks per neighbour instead.
        store_ = chain::BlockStore(ctx_.config->chain_depth);
        const auto retry = store_.append(block, *ctx_.im_verifier);
        if (retry) break;
        *why = chain_error_name(retry.error());
        return false;
      }
      default:
        *why = chain_error_name(appended.error());
        return false;
    }
  }

  // (ii), (iv): the plans themselves must be mutually conflict-free, both
  // within this block and against the cached chain (latest plan per vehicle).
  std::map<VehicleId, const aim::TravelPlan*> latest_plans;
  for (auto it = store_.blocks().rbegin(); it != store_.blocks().rend(); ++it) {
    for (const aim::TravelPlan& p : it->plans()) {
      latest_plans.try_emplace(p.vehicle, &p);
    }
  }
  std::vector<const aim::TravelPlan*> plans;
  plans.reserve(latest_plans.size());
  for (const auto& [vid, p] : latest_plans) {
    // Confirmed threats and announced self-evacuees no longer follow their
    // chain plans; those plans are void, not conflicting.
    if (confirmed_threats_.contains(vid)) continue;
    if (self_evac_announced_.contains(vid)) continue;
    // Evacuation plans are emergency stop/slow-down profiles issued without
    // fresh reservations; they are integrity-checked but exempt from the
    // conflict check (on-board collision avoidance governs during emergencies).
    if (p->evacuation) continue;
    // Virtual legacy-vehicle predictions are best-effort, not scheduling.
    if (p->unmanaged) continue;
    // Plans that start inside the core (recovery plans for vehicles that were
    // physically mid-crossing) are grandfathered: their occupancy is present
    // fact, not a scheduling decision. A malicious IM forging "mid-core"
    // positions is caught by the neighbourhood watch instead.
    if (p->segments.empty() ||
        p->segments.front().s0 >= ctx_.intersection->route(p->route_id).core_begin) {
      continue;
    }
    plans.push_back(p);
  }
  const auto conflicts =
      aim::find_plan_conflicts(*ctx_.intersection, plans,
                               ctx_.config->plan_check_margin_ms);
  if (!conflicts.empty()) {
    *why = "conflicting_plans";
    return false;
  }
  (void)now;
  return true;
}

void VehicleNode::handle_block(const chain::Block& block, Tick now) {
  // Any block receipt proves the IM is up (liveness only — a block never
  // grants a plan before it passes verification below).
  last_block_seen_at_ = now;
  // A self-evacuating vehicle has written the IM off; it ignores new blocks.
  if (state_ == VehicleState::kSelfEvacuation) return;
  if (!ctx_.config->security_enabled) {
    // Plain AIM mode: trust the block wholesale, just adopt our plan. The
    // issued_at guard keeps a replayed or reordered old block from rolling
    // the active plan back.
    if (const aim::TravelPlan* mine = block.plan_for(id_)) {
      if (!plan_ || plan_->issued_at <= mine->issued_at) {
        plan_ = *mine;
        if (state_ == VehicleState::kPreparation) set_state(VehicleState::kTraveling);
      }
    }
    return;
  }
  // Verification is a transient excursion: remember where to come back to so
  // e.g. an AwaitingResponse timeout is not silently cancelled by the next
  // routine block broadcast.
  const VehicleState prev = state_;
  if (prev != VehicleState::kPreparation) set_state(VehicleState::kBlockVerification);
  const auto t0 = std::chrono::steady_clock::now();
  std::string why;
  const bool ok = verify_block(block, now, &why);
  const double verify_us = elapsed_us(t0);
  ctx_.metrics->vehicle_verify_us.push_back(verify_us);
  if (ctx_.tracer != nullptr && util::trace::tracing_active()) {
    ctx_.tracer->complete("chain", "verify_block", now, now, verify_us,
                          "vehicle", static_cast<std::int64_t>(id_.value));
  }

  if (!ok) {
    if (std::getenv("NWADE_DEBUG_VEHICLE")) {
      std::fprintf(stderr, "VERIFY-FAIL t=%lld vehicle=%llu block=%llu why=%s\n",
                   (long long)now, (unsigned long long)id_.value,
                   (unsigned long long)block.seq, why.c_str());
    }
    ctx_.metrics->block_verification_failures++;
    if (!ctx_.metrics->im_conflict_detected) ctx_.metrics->im_conflict_detected = now;
    NWADE_LOG(kInfo) << "vehicle " << id_.value << " rejected block " << block.seq
                     << " (" << why << ")";
    enter_self_evacuation(GlobalReason::kConflictingPlans, VehicleId{}, now);
    return;
  }
  set_state(prev);

  // Learn revocations carried by the chain (e.g. a confirmed threat whose
  // evacuation alert predates our arrival).
  for (VehicleId v : block.revoked) confirmed_threats_.insert(v);

  // Adopt our own plan if this block carries one (initial, evacuation, or
  // recovery plans all arrive this way). A replayed or reordered old block
  // must never roll an adopted plan back (idempotent by issued_at), and a
  // degraded vehicle that already left the spawn point on sensors alone
  // cannot adopt a plan that describes a crossing from the spawn point.
  if (const aim::TravelPlan* mine = block.plan_for(id_)) {
    if (state_ != VehicleState::kSelfEvacuation &&
        (!plan_ || plan_->issued_at <= mine->issued_at)) {
      if (state_ == VehicleState::kDegraded) {
        if (std::abs(mine->s_at(now) - s_) <= 15.0) {
          plan_ = *mine;
          set_state(VehicleState::kTraveling);
        }
      } else {
        plan_ = *mine;
        if (state_ == VehicleState::kPreparation) set_state(VehicleState::kTraveling);
      }
    }
  }
}

void VehicleNode::handle_block_request(const BlockRequest& req, NodeId from) {
  const chain::Block* found = nullptr;
  if (req.by_seq) {
    found = store_.by_seq(req.seq);
  } else {
    for (auto it = store_.blocks().rbegin(); it != store_.blocks().rend(); ++it) {
      if (it->plan_for(req.plan_of) != nullptr) {
        found = &*it;
        break;
      }
    }
  }
  if (found == nullptr) return;
  auto resp = std::make_shared<BlockResponse>();
  resp->plan_of = req.plan_of;
  resp->block = std::make_shared<chain::Block>(*found);
  ctx_.network->unicast(node_id(), from, std::move(resp));
}

void VehicleNode::handle_block_response(const BlockResponse& resp, Tick now) {
  if (!resp.block) return;
  // The block cannot always be appended (it may predate our cache window), so
  // verify it standalone and harvest plans from it.
  if (!resp.block->verify_signature(*ctx_.im_verifier)) return;
  if (!resp.block->verify_merkle()) return;

  // A pending conflicting-plans claim about this block?
  if (pending_conflict_claims_.contains(resp.block->seq)) {
    pending_conflict_claims_.erase(resp.block->seq);
    // Same filters as Algorithm 1: emergency plans and grandfathered mid-core
    // plans are not scheduling decisions and must not be judged as conflicts.
    std::vector<const aim::TravelPlan*> plans;
    for (const aim::TravelPlan& p : resp.block->plans()) {
      if (p.evacuation || p.unmanaged) continue;
      if (confirmed_threats_.contains(p.vehicle)) continue;
      if (p.segments.empty() ||
          p.segments.front().s0 >=
              ctx_.intersection->route(p.route_id).core_begin) {
        continue;
      }
      plans.push_back(&p);
    }
    const auto conflicts = aim::find_plan_conflicts(
        *ctx_.intersection, plans, ctx_.config->plan_check_margin_ms);
    if (!conflicts.empty()) {
      if (!ctx_.metrics->im_conflict_detected) ctx_.metrics->im_conflict_detected = now;
      enter_self_evacuation(GlobalReason::kConflictingPlans, VehicleId{}, now);
      return;
    }
    if (!ctx_.metrics->false_global_detected) ctx_.metrics->false_global_detected = now;
  }

  for (const aim::TravelPlan& p : resp.block->plans()) {
    // Keep only the newest plan per vehicle.
    const auto it = extra_plans_.find(p.vehicle);
    if (it == extra_plans_.end() || it->second.issued_at < p.issued_at) {
      extra_plans_[p.vehicle] = p;
    }
  }
  // Our own plan may arrive this way when the original broadcast was lost.
  if (const aim::TravelPlan* mine = resp.block->plan_for(id_)) {
    if (!plan_ || plan_->issued_at < mine->issued_at) {
      if (state_ == VehicleState::kDegraded) {
        if (std::abs(mine->s_at(now) - s_) <= 15.0) {
          plan_ = *mine;
          set_state(VehicleState::kTraveling);
        }
      } else if (state_ != VehicleState::kSelfEvacuation) {
        plan_ = *mine;
        if (state_ == VehicleState::kPreparation) {
          set_state(VehicleState::kTraveling);
        }
      }
    }
  }
}

// --- verification votes -------------------------------------------------------------

void VehicleNode::handle_verify_request(const VerifyRequest& req, Tick now) {
  // A duplicated network can deliver the same round twice; answer once so the
  // IM's vote tally never double-counts us (it is keyed by responder anyway,
  // but re-sensing later could flip our answer mid-round).
  if (!answered_verify_rounds_.insert(req.request_id).second) return;
  if (answered_verify_rounds_.size() > 256) {
    answered_verify_rounds_.erase(answered_verify_rounds_.begin());
  }
  auto resp = std::make_shared<VerifyResponse>();
  resp->request_id = req.request_id;
  resp->responder = id_;
  resp->suspect = req.suspect;

  if (attack_.role != VehicleRole::kBenign) {
    // Collusion: cover fellow attackers, frame benign vehicles.
    resp->abnormal = !ctx_.malicious_ids->contains(req.suspect);
  } else {
    const auto obs = ctx_.sensors->observe(req.suspect);
    if (obs && obs->status.position.distance_to(position()) <=
                   ctx_.config->sensing_radius_m) {
      const auto dev = deviation_of(*obs, now);
      resp->abnormal = dev.has_value() && *dev > ctx_.config->deviation_tolerance_m;
      resp->evidence.suspect = req.suspect;
      resp->evidence.observed = obs->status;
      resp->evidence.observed_at = now;
      resp->evidence.deviation_m = dev.value_or(0.0);
    } else {
      resp->abnormal = false;  // cannot confirm
    }
  }
  ctx_.network->unicast(node_id(), kImNodeId, std::move(resp));
}

void VehicleNode::handle_alarm_dismiss(const AlarmDismiss& msg, Tick now) {
  dismissed_suspects_[msg.suspect] = now;
  global_reporters_per_suspect_.erase(msg.suspect);
  if (state_ == VehicleState::kAwaitingResponse && awaiting_suspect_ == msg.suspect) {
    set_state(VehicleState::kTraveling);
  }
}

void VehicleNode::handle_evacuation_alert(const EvacuationAlert& alert, Tick now) {
  (void)now;
  confirmed_threats_.insert(alert.suspect);
  if (state_ == VehicleState::kAwaitingResponse) {
    set_state(VehicleState::kTraveling);  // the IM responded; plans will follow
  }
  // Trust but verify: if the "threat" is nearby and acting normally, the
  // alert is a sham from a compromised IM (checked after a settling delay).
  if (alert.suspect != id_) {
    sham_check_suspect_ = alert.suspect;
    sham_check_after_ = now + 1500;
  }
}

// --- Algorithm 3: global verification -------------------------------------------------

void VehicleNode::handle_global_report(const GlobalReport& report, Tick now) {
  if (report.reporter == id_) return;
  // A global report implies its sender is self-evacuating; watchers must not
  // treat that announced deviation as a fresh attack.
  self_evac_announced_.insert(report.reporter);
  // If we had reported this very vehicle and were waiting on the IM, the
  // announcement explains the deviation: stand down.
  if (state_ == VehicleState::kAwaitingResponse &&
      awaiting_suspect_ == report.reporter) {
    set_state(VehicleState::kTraveling);
  }
  if (state_ == VehicleState::kSelfEvacuation) return;

  const VehicleState prev = state_;
  set_state(VehicleState::kGlobalVerification);
  switch (report.reason) {
    case GlobalReason::kConflictingPlans: {
      if (const chain::Block* block = store_.by_seq(report.block_seq)) {
        (void)block;
        // We verified this block when it arrived and found it clean, so the
        // report is false: notify the IM about the lying reporter.
        if (!ctx_.metrics->false_global_detected &&
            ctx_.malicious_ids->contains(report.reporter)) {
          ctx_.metrics->false_global_detected = now;
        }
        if (!denounced_reporters_.contains(report.reporter)) {
          denounced_reporters_.insert(report.reporter);
          auto ir = std::make_shared<IncidentReport>();
          ir->reporter = id_;
          ir->evidence.suspect = report.reporter;
          ir->evidence.observed_at = now;
          ir->block_seq = report.block_seq;
          ir->misbehavior_claim = true;
          ctx_.network->unicast(node_id(), kImNodeId, std::move(ir));
          ctx_.metrics->incident_reports++;
          trace_instant("nwade", "incident_report", now);
        }
      } else {
        // We never saw that block: fetch it from peers and judge then.
        pending_conflict_claims_.insert(report.block_seq);
        auto req = std::make_shared<BlockRequest>();
        req->requester = id_;
        req->by_seq = true;
        req->seq = report.block_seq;
        // The IM archives recent blocks; integrity is signature-protected,
        // so fetching from the accused party itself is still sound.
        ctx_.network->unicast(node_id(), kImNodeId, std::move(req));
      }
      break;
    }
    case GlobalReason::kAbnormalVehicle:
    case GlobalReason::kImUnresponsive: {
      const VehicleId suspect = report.suspect;
      if (!suspect.valid()) break;
      // The IM has confirmed this threat and is running the evacuation; the
      // global reports are expected echoes, not a sign of IM failure.
      if (confirmed_threats_.contains(suspect)) break;
      if (const auto it = dismissed_suspects_.find(suspect);
          it != dismissed_suspects_.end() && now - it->second < kDismissCooldownMs) {
        break;
      }
      const auto obs = ctx_.sensors->observe(suspect);
      const bool nearby =
          obs && obs->status.position.distance_to(position()) <=
                     ctx_.config->sensing_radius_m;
      if (nearby) {
        // Algorithm 3 (ii): verify locally instead of counting votes.
        const auto dev = deviation_of(*obs, now);
        const auto rep_it = reported_suspects_.find(suspect);
        const bool recently_reported =
            rep_it != reported_suspects_.end() &&
            now - rep_it->second < kReportCooldownMs;
        if (dev && *dev > ctx_.config->deviation_tolerance_m && !recently_reported &&
            attack_.role == VehicleRole::kBenign) {
          report_incident(*obs, *dev, now);
        } else if (dev && *dev <= ctx_.config->deviation_tolerance_m &&
                   attack_.role == VehicleRole::kBenign &&
                   ctx_.malicious_ids->contains(report.reporter) &&
                   !ctx_.metrics->false_incident_dismissed) {
          // The campaign's target behaves exactly per plan: a local witness
          // has refuted the lie (counts as detection when the IM is silent).
          ctx_.metrics->false_incident_dismissed = now;
        }
        break;
      }
      // Far away: count distinct reporters against the safety threshold.
      auto& reporters = global_reporters_per_suspect_[suspect];
      reporters.insert(report.reporter);
      if (static_cast<int>(reporters.size()) >= adaptive_threshold()) {
        enter_self_evacuation(GlobalReason::kAbnormalVehicle, suspect, now);
        return;
      }
      break;
    }
    case GlobalReason::kShamAlert: {
      im_distrust_reporters_.insert(report.reporter);
      if (static_cast<int>(im_distrust_reporters_.size()) >= 2) {
        enter_self_evacuation(GlobalReason::kShamAlert, report.suspect, now);
        return;
      }
      break;
    }
  }
  if (state_ == VehicleState::kGlobalVerification) set_state(prev);
}

// --- attacks ---------------------------------------------------------------------------

void VehicleNode::run_attack(Tick now,
                             const std::vector<Observation>& observations) {
  if (attack_fired_ || now < attack_.trigger_at) return;
  if (attack_.false_report == FalseReportKind::kIncident) {
    inject_false_incident(now, observations);
  } else {
    inject_false_global(now);
  }
}

void VehicleNode::inject_false_incident(
    Tick now, const std::vector<Observation>& observations) {
  // Frame the nearest non-colluding vehicle (from the caller's sweep).
  const Observation* target = nullptr;
  double best = std::numeric_limits<double>::max();
  for (const Observation& obs : observations) {
    if (ctx_.malicious_ids->contains(obs.id)) continue;
    const double d = obs.status.position.distance_to(position());
    if (d < best) {
      best = d;
      target = &obs;
    }
  }
  if (target == nullptr) return;  // retry at the next watch tick
  attack_fired_ = true;
  if (!ctx_.metrics->false_incident_injected) {
    ctx_.metrics->false_incident_injected = now;
  }

  // Fabricated evidence: shift the observed position far off the plan.
  Evidence fabricated;
  fabricated.suspect = target->id;
  fabricated.observed = target->status;
  fabricated.observed.position.x += 20.0;
  fabricated.observed_at = now;
  fabricated.deviation_m = 20.0;

  auto ir = std::make_shared<IncidentReport>();
  ir->reporter = id_;
  ir->evidence = fabricated;
  if (const auto* latest = store_.latest()) ir->block_seq = latest->seq;
  ctx_.network->unicast(node_id(), kImNodeId, std::move(ir));
  ctx_.metrics->incident_reports++;
  trace_instant("nwade", "incident_report", now);

  // Amplify with a global report to sway distant vehicles.
  auto gr = std::make_shared<GlobalReport>();
  gr->reporter = id_;
  gr->reason = GlobalReason::kAbnormalVehicle;
  gr->suspect = fabricated.suspect;
  gr->suspect_status = fabricated.observed;
  ctx_.network->broadcast(node_id(), std::move(gr));
  ctx_.metrics->global_reports++;
  trace_instant("nwade", "global_report", now);
}

void VehicleNode::inject_false_global(Tick now) {
  attack_fired_ = true;
  if (!ctx_.metrics->false_global_injected) {
    ctx_.metrics->false_global_injected = now;
  }
  auto gr = std::make_shared<GlobalReport>();
  gr->reporter = id_;
  gr->reason = GlobalReason::kConflictingPlans;
  gr->block_seq = store_.latest() != nullptr ? store_.latest()->seq : 0;
  ctx_.network->broadcast(node_id(), std::move(gr));
  ctx_.metrics->global_reports++;
  trace_instant("nwade", "global_report", now);
}

// --- self-evacuation ---------------------------------------------------------------------

void VehicleNode::enter_self_evacuation(GlobalReason reason, VehicleId suspect,
                                        Tick now) {
  if (state_ == VehicleState::kSelfEvacuation || state_ == VehicleState::kExited) {
    return;
  }
  set_state(VehicleState::kSelfEvacuation);
  if (std::getenv("NWADE_DEBUG_VEHICLE")) {
    std::fprintf(stderr, "SELF-EVAC t=%lld vehicle=%llu reason=%s suspect=%llu\n",
                 (long long)now, (unsigned long long)id_.value,
                 global_reason_name(reason), (unsigned long long)suspect.value);
  }
  if (attack_.role == VehicleRole::kBenign) {
    ctx_.metrics->benign_self_evacuations++;
    if (suspect.valid() && !ctx_.malicious_ids->contains(suspect)) {
      // Evacuating because of a campaign against an innocent vehicle: this is
      // exactly the false-alarm "trigger" Table II measures.
      ctx_.metrics->false_alarm_evacuations++;
      if (std::getenv("NWADE_DEBUG_VEHICLE")) {
        std::fprintf(stderr, "FALSE-EVAC t=%lld vehicle=%llu reason=%s suspect=%llu\n",
                     (long long)now, (unsigned long long)id_.value,
                     global_reason_name(reason), (unsigned long long)suspect.value);
      }
    }
    if (suspect.valid() && ctx_.malicious_ids->contains(suspect) &&
        !ctx_.metrics->deviation_confirmed) {
      ctx_.metrics->deviation_confirmed = now;
    }
  }
  last_evac_reason_ = reason;
  last_evac_suspect_ = suspect;
  if (!global_report_sent_) {
    global_report_sent_ = true;
    last_beacon_at_ = now;
    auto gr = std::make_shared<GlobalReport>();
    gr->reporter = id_;
    gr->reason = reason;
    gr->suspect = suspect;
    if (reason == GlobalReason::kConflictingPlans && store_.latest() != nullptr) {
      gr->block_seq = store_.latest()->seq;
    }
    ctx_.network->broadcast(node_id(), std::move(gr));
    ctx_.metrics->global_reports++;
    trace_instant("nwade", "global_report", now);
  }
  NWADE_LOG(kInfo) << "vehicle " << id_.value << " self-evacuating ("
                   << global_reason_name(reason) << ")";
}

// --- checkpoint/restore ------------------------------------------------------

namespace {

void save_id_set(ByteWriter& w, const std::set<VehicleId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const VehicleId id : ids) w.u64(id.value);
}

bool load_id_set(ByteReader& r, std::set<VehicleId>& out) {
  out.clear();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 8) return false;
  for (std::uint32_t i = 0; i < n; ++i) out.insert(VehicleId{r.u64()});
  return r.ok();
}

void save_tick_map(ByteWriter& w, const std::map<VehicleId, Tick>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [id, t] : m) {
    w.u64(id.value);
    w.i64(t);
  }
}

bool load_tick_map(ByteReader& r, std::map<VehicleId, Tick>& out) {
  out.clear();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 16) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    const VehicleId id{r.u64()};
    out[id] = r.i64();
  }
  return r.ok();
}

bool load_plan(ByteReader& r, std::optional<aim::TravelPlan>& out) {
  const Bytes raw = r.bytes();
  if (!r.ok()) return false;
  out = aim::TravelPlan::deserialize(raw);
  return out.has_value();
}

}  // namespace

void VehicleNode::checkpoint_save(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(state_));
  w.f64(s_);
  w.f64(v_);
  w.f64(lateral_offset_);
  store_.checkpoint_save(w);
  w.u8(plan_.has_value() ? 1 : 0);
  if (plan_) w.bytes(plan_->serialize());
  w.u32(static_cast<std::uint32_t>(extra_plans_.size()));
  for (const auto& [id, plan] : extra_plans_) {
    w.u64(id.value);
    w.bytes(plan.serialize());
  }
  save_tick_map(w, reported_suspects_);
  save_tick_map(w, block_requests_inflight_);
  save_tick_map(w, dismissed_suspects_);
  save_id_set(w, self_evac_announced_);
  w.u32(static_cast<std::uint32_t>(pending_conflict_claims_.size()));
  for (const chain::BlockSeq seq : pending_conflict_claims_) w.u64(seq);
  save_id_set(w, denounced_reporters_);
  w.u32(static_cast<std::uint32_t>(global_reporters_per_suspect_.size()));
  for (const auto& [suspect, reporters] : global_reporters_per_suspect_) {
    w.u64(suspect.value);
    save_id_set(w, reporters);
  }
  save_id_set(w, im_distrust_reporters_);
  w.u8(sham_check_suspect_.has_value() ? 1 : 0);
  w.u64(sham_check_suspect_ ? sham_check_suspect_->value : 0);
  w.i64(sham_check_after_);
  save_id_set(w, confirmed_threats_);
  w.i64(awaiting_deadline_);
  w.u64(awaiting_suspect_.value);
  w.i64(awaiting_retries_);
  w.i64(plan_retries_);
  w.i64(next_plan_request_at_);
  w.i64(last_block_seen_at_);
  w.u8(degraded_committed_ ? 1 : 0);
  w.i64(next_clear_check_at_);
  w.f64(shoulder_side_);
  w.u32(static_cast<std::uint32_t>(answered_verify_rounds_.size()));
  for (const std::uint64_t round : answered_verify_rounds_) w.u64(round);
  w.i64(last_beacon_at_);
  w.u8(static_cast<std::uint8_t>(last_evac_reason_));
  w.u64(last_evac_suspect_.value);
  w.u8(attack_fired_ ? 1 : 0);
  w.u8(global_report_sent_ ? 1 : 0);
  w.i64(sensed_neighbours_);
}

bool VehicleNode::checkpoint_restore(ByteReader& r) {
  const std::uint8_t state = r.u8();
  if (!r.ok() || state > static_cast<std::uint8_t>(VehicleState::kExited)) {
    return false;
  }
  set_state(static_cast<VehicleState>(state));
  s_ = r.f64();
  v_ = r.f64();
  lateral_offset_ = r.f64();
  if (!store_.checkpoint_restore(r)) return false;
  plan_.reset();
  if (r.u8() != 0 && !load_plan(r, plan_)) return false;
  extra_plans_.clear();
  const std::uint32_t n_extra = r.u32();
  if (!r.ok() || n_extra > r.remaining() / 9) return false;
  for (std::uint32_t i = 0; i < n_extra; ++i) {
    const VehicleId id{r.u64()};
    std::optional<aim::TravelPlan> plan;
    if (!load_plan(r, plan)) return false;
    extra_plans_.emplace(id, std::move(*plan));
  }
  if (!load_tick_map(r, reported_suspects_)) return false;
  if (!load_tick_map(r, block_requests_inflight_)) return false;
  if (!load_tick_map(r, dismissed_suspects_)) return false;
  if (!load_id_set(r, self_evac_announced_)) return false;
  pending_conflict_claims_.clear();
  const std::uint32_t n_claims = r.u32();
  if (!r.ok() || n_claims > r.remaining() / 8) return false;
  for (std::uint32_t i = 0; i < n_claims; ++i) {
    pending_conflict_claims_.insert(r.u64());
  }
  if (!load_id_set(r, denounced_reporters_)) return false;
  global_reporters_per_suspect_.clear();
  const std::uint32_t n_suspects = r.u32();
  if (!r.ok() || n_suspects > r.remaining() / 12) return false;
  for (std::uint32_t i = 0; i < n_suspects; ++i) {
    const VehicleId suspect{r.u64()};
    if (!load_id_set(r, global_reporters_per_suspect_[suspect])) return false;
  }
  if (!load_id_set(r, im_distrust_reporters_)) return false;
  const bool has_sham = r.u8() != 0;
  const VehicleId sham{r.u64()};
  sham_check_suspect_ =
      has_sham ? std::optional<VehicleId>(sham) : std::nullopt;
  sham_check_after_ = r.i64();
  if (!load_id_set(r, confirmed_threats_)) return false;
  awaiting_deadline_ = r.i64();
  awaiting_suspect_ = VehicleId{r.u64()};
  awaiting_retries_ = static_cast<int>(r.i64());
  plan_retries_ = static_cast<int>(r.i64());
  next_plan_request_at_ = r.i64();
  last_block_seen_at_ = r.i64();
  degraded_committed_ = r.u8() != 0;
  next_clear_check_at_ = r.i64();
  shoulder_side_ = r.f64();
  answered_verify_rounds_.clear();
  const std::uint32_t n_rounds = r.u32();
  if (!r.ok() || n_rounds > r.remaining() / 8) return false;
  for (std::uint32_t i = 0; i < n_rounds; ++i) {
    answered_verify_rounds_.insert(r.u64());
  }
  last_beacon_at_ = r.i64();
  const std::uint8_t reason = r.u8();
  if (!r.ok() || reason > 3) return false;
  last_evac_reason_ = static_cast<GlobalReason>(reason);
  last_evac_suspect_ = VehicleId{r.u64()};
  attack_fired_ = r.u8() != 0;
  global_report_sent_ = r.u8() != 0;
  sensed_neighbours_ = static_cast<int>(r.i64());
  return r.ok();
}

}  // namespace nwade::protocol
