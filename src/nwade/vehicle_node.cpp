#include "nwade/vehicle_node.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <chrono>

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
      store_(ctx.config->chain_depth) {}

void VehicleNode::trace_instant(const char* cat, const char* name,
                                Tick now) const {
  if (ctx_.tracer == nullptr || !ctx_.tracer->enabled()) return;
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
  next_plan_request_at_ = spawn_time_ + 2 * kProcessingWindowMs;
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
  if (plan_retries_ >= kPlanRequestMaxRetries) {
    // Degraded mode is for an IM that looks dead from here. If block
    // broadcasts are still reaching us, the IM is alive but withholding
    // issuance (e.g. a courtesy gap draining the junction) — keep polling at
    // the capped rate instead of falling back to sensors.
    const bool chain_alive =
        last_block_seen_at_ > 0 &&
        now - last_block_seen_at_ <= kPlanRequestBackoffCapMs;
    if (state_ == VehicleState::kPreparation && !chain_alive) enter_degraded(now);
    // Already degraded at the spawn point: keep polling at the capped rate in
    // case the IM comes back before we commit to crossing on sensors alone.
    send_plan_request();
    next_plan_request_at_ = now + kPlanRequestBackoffCapMs;
    return;
  }
  ++plan_retries_;
  ctx_.metrics->plan_request_retries++;
  send_plan_request();
  Duration backoff = kPlanRequestBackoffMs;
  for (int i = 1; i < plan_retries_; ++i) backoff *= 2;
  backoff = std::min(backoff, kPlanRequestBackoffCapMs);
  next_plan_request_at_ = now + backoff;
}

void VehicleNode::set_state(VehicleState next) {
  state_ = next;
  // Mirror liveness into the SoA active flag so column-streaming loops (the
  // sensor-scene rebuild, car following's route buckets) can skip exited
  // rows without touching the node.
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
  } else if (state_ == VehicleState::kDegraded) {
    step_degraded(now, dt, route);
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
        if (dev && *dev > kDeviationToleranceM) {
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
      cross_dist / std::max(kDegradedCrossSpeedMps, 0.5) +
      static_cast<double>(kDegradedClearMarginMs) / 1000.0;

  // Sample the conflict-relevant span of our route; any other vehicle that
  // could reach it before we clear it keeps the box "occupied".
  std::vector<geom::Vec2> samples;
  for (double s = route.core_begin; s <= route.core_end; s += 5.0) {
    samples.push_back(route.path.point_at(s));
  }
  samples.push_back(route.path.point_at(route.core_end));

  const double limit_mps = ctx_.intersection->config().limits.speed_limit_mps;
  const auto observations =
      ctx_.sensors->sense_around(position(), kSensingRadiusM, id_);
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
                              ? kDegradedCrossSpeedMps
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
                  kDegradedApproachSpeedMps);
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

void VehicleNode::watch_scan(Tick now, WatchScratch& w) const {
  w.actions.clear();
  ctx_.sensors->sense_around_into(position(), kSensingRadiusM, id_,
                                  w.observations);
  if (attack_.role != VehicleRole::kBenign) return;  // liars don't report truth

  const auto in_cooldown = [now](const std::map<VehicleId, Tick>& m, VehicleId id,
                                 Duration window) {
    const auto it = m.find(id);
    return it != m.end() && now - it->second < window;
  };
  for (std::size_t i = 0; i < w.observations.size(); ++i) {
    const Observation& obs = w.observations[i];
    if (in_cooldown(reported_suspects_, obs.id, kReportCooldownMs)) continue;
    if (in_cooldown(dismissed_suspects_, obs.id, kDismissCooldownMs)) continue;
    if (confirmed_threats_.contains(obs.id)) continue;
    if (self_evac_announced_.contains(obs.id)) continue;

    const aim::TravelPlan* p = lookup_plan(obs.id);
    if (p == nullptr) {
      w.actions.push_back({static_cast<std::uint32_t>(i), true, 0.0});
      continue;
    }
    // Legacy vehicles have no plan to violate; their chain entries are the
    // IM's virtual predictions, not commitments. Evacuation profiles are not
    // enforceable either (on-board collision avoidance governs during the
    // emergency maneuver), and neither is a plan issued moments ago: its
    // block may still be in flight — or lost and awaiting gap recovery — so
    // the neighbour cannot be expected to follow it yet.
    if (p->unmanaged || p->evacuation ||
        now - p->issued_at < kPlanGraceMs) {
      continue;
    }
    const double dev = deviation_from(*p, obs, now);
    if (dev <= kDeviationToleranceM) continue;
    // A stationary vehicle on the shoulder (well off its lane centreline) has
    // pulled over — self-evacuated or broken down — and is no threat. A
    // stationary vehicle still in the staging area at the communication-zone
    // edge is waiting for (or lost) its plan, not attacking.
    if (obs.status.speed_mps < 0.5) {
      const auto& route = ctx_.intersection->route(p->route_id);
      const auto [lateral, s_proj] = route.path.project(obs.status.position);
      if (lateral > 2.5) continue;
      if (s_proj < 30.0) continue;
    }
    w.actions.push_back({static_cast<std::uint32_t>(i), false, dev});
  }
}

void VehicleNode::watch_emit(Tick now, const WatchScratch& w) {
  const std::vector<Observation>& observations = w.observations;
  // The attack and the sham check read the sweep but change nothing the
  // scan's decisions read, so running them first, as Algorithm 2's serial
  // form does, keeps every send in its original order.
  if (attack_.role == VehicleRole::kFalseReporter) run_attack(now, observations);

  sensed_neighbours_ = static_cast<int>(observations.size());

  // Check a pending sham-evacuation suspicion first. Wait for the scene to
  // settle, and only cry sham when the "threat" is unambiguously on-plan —
  // a borderline reading must never discredit a correct alert.
  if (sham_check_suspect_ && now >= sham_check_after_) {
    for (const Observation& obs : observations) {
      if (obs.id != *sham_check_suspect_) continue;
      const auto dev = deviation_of(obs, now);
      if (dev && *dev < 0.5 * kDeviationToleranceM) {
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

  // Each observation names a distinct vehicle, so an earlier action (a
  // report starting that suspect's cooldown) never changes the decision on
  // a later one: committing the recorded actions in order is the serial
  // per-observation loop.
  for (const WatchScratch::Action& action : w.actions) {
    const Observation& obs = observations[action.obs];
    if (action.request_block) {
      request_plan_block(obs.id, now);
      continue;
    }
    if (state_ != VehicleState::kSelfEvacuation) {
      set_state(VehicleState::kLocalVerification);
    }
    report_incident(obs, action.deviation_m, now);
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
  return deviation_from(*plan, obs, now);
}

double VehicleNode::deviation_from(const aim::TravelPlan& plan,
                                   const Observation& obs, Tick now) const {
  const auto& route = ctx_.intersection->route(plan.route_id);
  return (obs.status.position - route.path.point_at(plan.s_at(now))).norm();
}

void VehicleNode::report_incident(const Observation& obs, double deviation,
                                  Tick now) {
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
    awaiting_deadline_ = now + kImResponseTimeoutMs;
    set_state(VehicleState::kAwaitingResponse);
  }
}

// --- message dispatch ------------------------------------------------------------

void VehicleNode::on_message(const net::Envelope& env) {
  if (state_ == VehicleState::kExited) return;
  const Tick now = ctx_.clock->now();
  if (const auto* bb = dynamic_cast<const BlockBroadcast*>(env.msg.get())) {
    if (bb->block) handle_block(bb->block, now);
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

bool VehicleNode::verify_block(const chain::BlockPtr& block, Tick now,
                               std::string* why) {
  // (i), (iii): signature, Merkle root, linkage — structural checks. A
  // different block under a seq the store still holds fails as equivocation.
  const auto appended = store_.append(block, *ctx_.im_verifier);
  if (!appended) {
    switch (appended.error()) {
      case chain::ChainError::kNonMonotonicSeq: {
        const auto* latest = store_.latest();
        if (latest != nullptr && block->seq <= latest->seq) {
          // The cached block itself replayed, or a seq already evicted (see
          // docs/FAULT_MODEL.md): harmless.
          return true;
        }
        // A gap: this vehicle missed blocks (burst loss, jitter reordering,
        // or joining mid-stream). Fetch the missed blocks from the IM — one
        // of them may carry our own superseding plan — then resync from this
        // block. Peers answer by-seq BlockRequests too, so gap recovery also
        // works while the IM is dark (handle_block_request).
        const auto missing = store_.missing_before(
            block->seq, static_cast<std::size_t>(kGapRequestLimit));
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
  std::vector<const aim::TravelPlan*> plans = store_.latest_plans();
  std::erase_if(plans, [&](const aim::TravelPlan* p) {
    // Confirmed threats and announced self-evacuees no longer follow their
    // chain plans; those plans are void, not conflicting.
    if (confirmed_threats_.contains(p->vehicle)) return true;
    if (self_evac_announced_.contains(p->vehicle)) return true;
    // Evacuation plans are emergency stop/slow-down profiles issued without
    // fresh reservations; they are integrity-checked but exempt from the
    // conflict check (on-board collision avoidance governs during emergencies).
    if (p->evacuation) return true;
    // Virtual legacy-vehicle predictions are best-effort, not scheduling.
    if (p->unmanaged) return true;
    // Plans that start inside the core (recovery plans for vehicles that were
    // physically mid-crossing) are grandfathered: their occupancy is present
    // fact, not a scheduling decision. A malicious IM forging "mid-core"
    // positions is caught by the neighbourhood watch instead.
    return p->segments.empty() ||
           p->segments.front().s0 >= ctx_.intersection->route(p->route_id).core_begin;
  });
  const auto conflicts =
      aim::find_plan_conflicts(*ctx_.intersection, plans,
                               kPlanCheckMarginMs);
  if (!conflicts.empty()) {
    *why = "conflicting_plans";
    return false;
  }
  (void)now;
  return true;
}

void VehicleNode::handle_block(const chain::BlockPtr& block_ptr, Tick now) {
  const chain::Block& block = *block_ptr;
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
  const bool ok = verify_block(block_ptr, now, &why);
  const double verify_us = elapsed_us(t0);
  ctx_.metrics->vehicle_verify_us.push_back(verify_us);
  if (ctx_.tracer != nullptr && ctx_.tracer->enabled()) {
    ctx_.tracer->complete("chain", "verify_block", now, now, verify_us,
                          "vehicle", static_cast<std::int64_t>(id_.value));
  }

  if (!ok) {
    reject_block(block.seq, why, now);
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

void VehicleNode::reject_block(chain::BlockSeq seq, const std::string& why, Tick now) {
  ctx_.metrics->block_verification_failures++;
  trace_instant("nwade", "reject_block", now);
  if (!ctx_.metrics->im_conflict_detected) ctx_.metrics->im_conflict_detected = now;
  NWADE_LOG(kInfo) << "vehicle " << id_.value << " rejected block " << seq << " ("
                   << why << ")";
  enter_self_evacuation(GlobalReason::kConflictingPlans, VehicleId{}, now);
}

void VehicleNode::handle_block_request(const BlockRequest& req, NodeId from) {
  chain::BlockPtr found = req.by_seq ? store_.by_seq(req.seq)
                                     : store_.block_with_plan(req.plan_of);
  if (found == nullptr) return;
  auto resp = std::make_shared<BlockResponse>();
  resp->plan_of = req.plan_of;
  resp->block = std::move(found);
  ctx_.network->unicast(node_id(), from, std::move(resp));
}

void VehicleNode::handle_block_response(const BlockResponse& resp, Tick now) {
  if (!resp.block) return;
  // The block cannot always be appended (it may predate our cache window), so
  // verify it standalone and harvest plans from it.
  if (!resp.block->verify_signature(*ctx_.im_verifier)) return;
  if (!resp.block->verify_merkle()) return;
  // Signed by the IM, yet not the block we cache under this seq: the IM
  // equivocated, whether the response was requested or not.
  const chain::BlockPtr cached = store_.by_seq(resp.block->seq);
  if (cached != nullptr && cached->hash() != resp.block->hash()) {
    if (state_ != VehicleState::kSelfEvacuation) {
      reject_block(resp.block->seq, chain_error_name(chain::ChainError::kEquivocation),
                   now);
    }
    return;
  }

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
        *ctx_.intersection, plans, kPlanCheckMarginMs);
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
                   kSensingRadiusM) {
      const auto dev = deviation_of(*obs, now);
      resp->abnormal = dev.has_value() && *dev > kDeviationToleranceM;
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
      if (store_.by_seq(report.block_seq) != nullptr) {
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
                     kSensingRadiusM;
      if (nearby) {
        // Algorithm 3 (ii): verify locally instead of counting votes.
        const auto dev = deviation_of(*obs, now);
        const auto rep_it = reported_suspects_.find(suspect);
        const bool recently_reported =
            rep_it != reported_suspects_.end() &&
            now - rep_it->second < kReportCooldownMs;
        if (dev && *dev > kDeviationToleranceM && !recently_reported &&
            attack_.role == VehicleRole::kBenign) {
          report_incident(*obs, *dev, now);
        } else if (dev && *dev <= kDeviationToleranceM &&
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
  trace_instant("nwade", "self_evacuation", now);
  if (attack_.role == VehicleRole::kBenign) {
    ctx_.metrics->benign_self_evacuations++;
    if (suspect.valid() && !ctx_.malicious_ids->contains(suspect)) {
      // Evacuating because of a campaign against an innocent vehicle: this is
      // exactly the false-alarm "trigger" Table II measures.
      ctx_.metrics->false_alarm_evacuations++;
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

template <class Ar, class Self>
void VehicleNode::io(Ar& ar, Self& v) {
  ar.enum8(v.state_, VehicleState::kExited);
  ar.f64(v.s_);
  ar.f64(v.v_);
  ar.f64(v.lateral_offset_);
  ar(v.store_);
  ar.maybe(v.plan_, [](auto& a, auto& plan) { a.sized(plan); });
  ar.map(v.extra_plans_, 9, [](auto& a, auto& id, auto& plan) {
    a.id(id);
    a.sized(plan);
  });
  ar.tick_map(v.reported_suspects_);
  ar.tick_map(v.block_requests_inflight_);
  ar.tick_map(v.dismissed_suspects_);
  ar.ids(v.self_evac_announced_);
  ar.u64s(v.pending_conflict_claims_);
  ar.ids(v.denounced_reporters_);
  ar.map(v.global_reporters_per_suspect_, 12, [](auto& a, auto& suspect, auto& reporters) {
    a.id(suspect);
    a.ids(reporters);
  });
  ar.ids(v.im_distrust_reporters_);
  ar.opt(v.sham_check_suspect_, [](auto& a, auto& id) { a.id(id); });
  ar.i64(v.sham_check_after_);
  ar.ids(v.confirmed_threats_);
  ar.i64(v.awaiting_deadline_);
  ar.id(v.awaiting_suspect_);
  ar.i64(v.awaiting_retries_);
  ar.i64(v.plan_retries_);
  ar.i64(v.next_plan_request_at_);
  ar.i64(v.last_block_seen_at_);
  ar.flag(v.degraded_committed_);
  ar.i64(v.next_clear_check_at_);
  ar.f64(v.shoulder_side_);
  ar.u64s(v.answered_verify_rounds_);
  ar.i64(v.last_beacon_at_);
  ar.enum8(v.last_evac_reason_, GlobalReason::kShamAlert);
  ar.id(v.last_evac_suspect_);
  ar.flag(v.attack_fired_);
  ar.flag(v.global_report_sent_);
  ar.i64(v.sensed_neighbours_);
  if constexpr (Ar::kReading) v.set_state(v.state_);  // mirrors the SoA flag
}
template void VehicleNode::io(WriteArchive&, const VehicleNode&);
template void VehicleNode::io(ReadArchive&, VehicleNode&);

}  // namespace nwade::protocol
