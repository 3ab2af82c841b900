#include "nwade/im_node.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "util/log.h"

namespace nwade::protocol {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

constexpr int kVerifierGroupSize = 6;

}  // namespace

const char* im_state_name(ImState s) {
  switch (s) {
    case ImState::kStandby: return "standby";
    case ImState::kScheduling: return "scheduling";
    case ImState::kBlockPackaging: return "block_packaging";
    case ImState::kDissemination: return "dissemination";
    case ImState::kReportVerification: return "report_verification";
    case ImState::kEvacuation: return "evacuation";
    case ImState::kRecovery: return "recovery";
  }
  return "?";
}

ImNode::ImNode(ImContext ctx, aim::SchedulerConfig scheduler_config,
               ImAttackProfile attack)
    : ctx_(ctx), scheduler_(*ctx.intersection, scheduler_config), attack_(attack) {
  assert(ctx_.intersection && ctx_.config && ctx_.network && ctx_.clock &&
         ctx_.queue && ctx_.sensors && ctx_.signer && ctx_.metrics &&
         ctx_.malicious_ids);
  if (ctx_.registry != nullptr) {
    windows_counter_ = ctx_.registry->counter("aim.windows");
    plans_scheduled_counter_ = ctx_.registry->counter("aim.plans_scheduled");
    reservations_gauge_ = ctx_.registry->gauge("aim.reservations_active");
  }
}

void ImNode::trace_instant(const char* cat, const char* name, Tick now,
                           std::int64_t arg) const {
  if (ctx_.tracer == nullptr || !ctx_.tracer->enabled()) return;
  ctx_.tracer->instant(cat, name, now, "id", arg);
}

void ImNode::trace_round_end(const VerificationRound& round, Tick now) const {
  if (ctx_.tracer == nullptr || !ctx_.tracer->enabled()) return;
  ctx_.tracer->complete("nwade", "verify_round", round.started_at, now,
                        /*wall_us=*/-1.0, "suspect",
                        static_cast<std::int64_t>(round.suspect.value));
}

void ImNode::start() {
  const Duration delta = ctx_.config->processing_window_ms;
  const Tick when = ctx_.clock->now() + delta;
  const std::uint64_t seq = ctx_.queue->schedule_at(when, [this] {
    process_window();
    start();  // re-arm the next window
  });
  window_event_ = PendingEvent{seq, when};
}

void ImNode::crash(Tick now) {
  if (down_) return;
  down_ = true;
  // Volatile state is lost; the signed block log (seq_, prev_hash_,
  // recent_blocks_) models durable storage and survives the restart.
  pending_requests_.clear();
  active_plans_.clear();
  rounds_.clear();
  round_by_suspect_.clear();
  unmanaged_ids_.clear();
  parked_since_.clear();
  courtesy_retry_at_.clear();
  courtesy_until_ = 0;
  ever_planned_.clear();
  evacuation_suspect_ = VehicleId{};
  suspect_stopped_checks_ = 0;
  set_state(ImState::kStandby);
  ctx_.metrics->im_crashes++;
  trace_instant("im", "crash", now);
  NWADE_LOG(kInfo) << "IM crashed at t=" << now;
}

void ImNode::restart(Tick now) {
  if (!down_) return;
  down_ = false;
  ctx_.metrics->im_restarts++;
  // Rebuild the plan table from the durable chain: newest plan per vehicle,
  // skipping perception-derived virtual plans (the next window re-tracks any
  // legacy vehicle still in range) and vehicles that already left.
  for (const chain::BlockPtr& block : recent_blocks_.blocks()) {
    for (const aim::TravelPlan& plan : block->plans()) {
      if (plan.unmanaged) continue;
      ever_planned_.insert(plan.vehicle);
      const auto it = active_plans_.find(plan.vehicle);
      if (it == active_plans_.end() || it->second.issued_at <= plan.issued_at) {
        active_plans_[plan.vehicle] = plan;
      }
    }
    for (VehicleId revoked : block->revoked) confirmed_suspects_.insert(revoked);
  }
  prune_exited_plans(now);
  // Scheduler reservations for the recovered plans were also lost; re-commit
  // them so post-restart scheduling cannot double-book an occupied zone.
  for (const auto& [vid, plan] : active_plans_) {
    scheduler_.reserve_virtual(plan);
  }
  trace_instant("im", "restart", now,
                static_cast<std::int64_t>(active_plans_.size()));
  NWADE_LOG(kInfo) << "IM restarted at t=" << now << "; recovered "
                   << active_plans_.size() << " active plans from "
                   << recent_blocks_.size() << " durable blocks";
}

bool ImNode::silenced(Tick now) const {
  return (attack_.mode == ImAttackMode::kSilence ||
          attack_.mode == ImAttackMode::kConflictingPlansAndSilence) &&
         now >= attack_.trigger_at;
}

// --- window processing -----------------------------------------------------------

void ImNode::process_window() {
  const Tick now = ctx_.clock->now();
  if (down_) return;  // crashed: windows tick but nothing runs
  if (state_ == ImState::kEvacuation) {
    check_evacuation_progress();
    return;
  }
  if (state_ == ImState::kReportVerification) return;  // wait for the tally

  prune_exited_plans(now);
  scheduler_.release_before(now - 60'000);

  std::vector<aim::TravelPlan> virtual_plans = track_unmanaged(now);
  // Courtesy gap active: requests stay pending (deduplicated on arrival) and
  // are scheduled once the hold expires. The block published below (possibly
  // empty) doubles as a liveness heartbeat so the waiting requesters keep
  // retrying instead of falling back to degraded mode.
  const bool defer_issuance = now < courtesy_until_;
  if (pending_requests_.empty() && virtual_plans.empty()) return;

  const auto t0 = std::chrono::steady_clock::now();
  set_state(ImState::kScheduling);
  std::vector<aim::TravelPlan> plans = std::move(virtual_plans);
  if (!defer_issuance) {
    plans.reserve(plans.size() + pending_requests_.size());
    for (const PlanRequest& req : pending_requests_) {
      ever_planned_.insert(req.vehicle);
      plans.push_back(scheduler_.schedule(req.vehicle, req.route_id, req.traits,
                                          now, req.status.speed_mps));
    }
    pending_requests_.clear();
  }

  // Compromised IM: warp one plan onto a colliding trajectory.
  const bool attack_window =
      (attack_.mode == ImAttackMode::kConflictingPlans ||
       attack_.mode == ImAttackMode::kConflictingPlansAndSilence) &&
      now >= attack_.trigger_at && !conflict_injected_;
  if (attack_window && try_inject_conflict(plans, now)) {
    conflict_injected_ = true;
    if (!ctx_.metrics->im_conflict_injected) ctx_.metrics->im_conflict_injected = now;
  }

  set_state(ImState::kBlockPackaging);
  const auto plan_count = static_cast<std::int64_t>(plans.size());
  for (const aim::TravelPlan& p : plans) active_plans_[p.vehicle] = p;
  publish_block(std::move(plans), /*count_timing=*/false);
  const double window_us = elapsed_us(t0);
  ctx_.metrics->im_package_us.push_back(window_us);
  windows_counter_.inc();
  plans_scheduled_counter_.inc(plan_count);
  reservations_gauge_.set(
      static_cast<std::int64_t>(scheduler_.reservation_count()));
  if (ctx_.tracer != nullptr && ctx_.tracer->enabled()) {
    ctx_.tracer->complete("aim", "process_window", now, ctx_.clock->now(),
                          window_us, "plans", plan_count);
  }
  set_state(ImState::kStandby);
}

void ImNode::publish_block(std::vector<aim::TravelPlan> plans, bool count_timing) {
  const Tick now = ctx_.clock->now();
  const auto plan_count = static_cast<std::int64_t>(plans.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<VehicleId> revoked(confirmed_suspects_.begin(),
                                 confirmed_suspects_.end());
  chain::BlockPtr block = chain::Block::package(seq_, prev_hash_, now, std::move(plans),
                                                *ctx_.signer, std::move(revoked));
  const double package_us = elapsed_us(t0);
  if (count_timing) ctx_.metrics->im_package_us.push_back(package_us);
  if (ctx_.tracer != nullptr && ctx_.tracer->enabled()) {
    ctx_.tracer->complete("chain", "package", now, now, package_us, "plans",
                          plan_count);
  }
  prev_hash_ = block->hash();
  ++seq_;
  ctx_.metrics->blocks_published++;

  recent_blocks_.append_unchecked(block);

  set_state(ImState::kDissemination);
  auto msg = std::make_shared<BlockBroadcast>();
  msg->block = std::move(block);
  ctx_.network->broadcast(node_id(), std::move(msg));
}

std::vector<aim::TravelPlan> ImNode::track_unmanaged(Tick now) {
  std::vector<aim::TravelPlan> fresh;
  // Managed-plan occupancies computed at most once per refresh (dropped when
  // a replan changes the plan). The conflict test against every prediction
  // below used to rebuild both plans' occupancy tables per pair, which made
  // the refresh quadratic-with-a-heavy-constant in (legacy x managed).
  std::map<VehicleId, aim::PlanOccupancy> occ_cache;
  ctx_.sensors->sense_around_into({0, 0}, ctx_.config->im_perception_radius_m,
                                  VehicleId{}, sense_buf_);
  const auto& seen = sense_buf_;
  for (const Observation& obs : seen) {
    // Managed vehicles (even ones whose plan went stale) are never
    // reclassified as legacy: the IM has their identity on file.
    if (ever_planned_.contains(obs.id)) continue;
    if (confirmed_suspects_.contains(obs.id)) continue;
    if (obs.status.speed_mps < 2.0 && !unmanaged_ids_.contains(obs.id)) {
      continue;  // staged / parked; managed vehicles wait at the zone edge
    }
    // Match the observation to a route: nearest path with compatible heading.
    int best_route = -1;
    double best_s = 0, best_score = 6.0;  // max 6 m lateral to match
    for (const traffic::Route& r : ctx_.intersection->routes()) {
      const auto [dist, s_proj] = r.path.project(obs.status.position);
      if (dist > best_score) continue;
      const double heading_diff = std::abs(std::remainder(
          r.path.heading_at(s_proj) - obs.status.heading_rad, 2 * 3.14159265));
      if (heading_diff > 0.5) continue;
      best_score = dist;
      best_route = r.id;
      best_s = s_proj;
    }
    if (best_route < 0) continue;

    // A tracked vehicle parked short of the core is yielding (a degraded
    // vehicle waiting for the box to clear, a stalled legacy car at its stop
    // line) — not crossing. The speed floor below would otherwise predict a
    // minute-long phantom core occupancy on every refresh and churn the
    // whole managed fleet through mid-flight reschedules around a crossing
    // that is not happening. Keep its identity; prediction resumes the
    // moment it moves. A vehicle stopped *inside* the core still reserves:
    // its occupancy is physical fact.
    const auto& route = ctx_.intersection->route(best_route);
    if (obs.status.speed_mps < 2.0 && best_s < route.core_begin - 1.0) {
      // A vehicle stuck at its stop line for several seconds means the
      // traffic never offers a crossable gap: hold new plan issuance so the
      // junction drains and its sensor-gated crossing can commit. The hold
      // must outlast the in-flight plans issued just before it (they keep
      // crossing the box for ~20 s), and it re-arms after a recovery window
      // in case the vehicle still could not commit.
      const Tick since = parked_since_.try_emplace(obs.id, now).first->second;
      // Its last constant-speed prediction is falsified (it stopped): free
      // the reserved zones so they do not haunt the schedule.
      scheduler_.release_vehicle(obs.id);
      if (now - since >= 8'000 && best_s > route.core_begin - 20.0) {
        Tick& retry_at = courtesy_retry_at_[obs.id];
        if (now >= retry_at) {
          retry_at = now + 45'000;
          courtesy_until_ = std::max(courtesy_until_, now + 30'000);
          ctx_.metrics->im_courtesy_gaps++;
          NWADE_LOG(kInfo) << "IM holds issuance for parked vehicle "
                           << obs.id.value << " (courtesy gap)";
        }
      }
      continue;
    }
    // Moving again: a later stop starts a fresh parking episode.
    parked_since_.erase(obs.id);
    courtesy_retry_at_.erase(obs.id);

    aim::TravelPlan plan;
    plan.vehicle = obs.id;
    plan.route_id = best_route;
    plan.traits = obs.traits;
    plan.status_at_issue = obs.status;
    plan.issued_at = now;
    plan.unmanaged = true;
    // Predict with the observed speed. Underestimating occupancy (assuming a
    // queued vehicle will speed back up) schedules managed traffic into the
    // legacy vehicle's actual late crossing; overestimating merely wastes
    // capacity. The floor only guards the division for a parked vehicle.
    const double v = std::max(obs.status.speed_mps, 1.0);
    plan.segments = {aim::PlanSegment{now, best_s, v}};
    plan.core_entry =
        best_s < route.core_begin
            ? now + seconds_to_ticks((route.core_begin - best_s) / v)
            : now;
    plan.core_exit = now + seconds_to_ticks(
                               std::max(0.0, route.core_end - best_s) / v);
    // This prediction supersedes last window's: release the old claims first
    // or every refresh piles another phantom interval onto the tables.
    scheduler_.release_vehicle(obs.id);
    scheduler_.reserve_virtual(plan);
    active_plans_[obs.id] = plan;
    unmanaged_ids_.insert(obs.id);

    // A legacy vehicle's predicted trajectory shifts whenever it brakes or
    // accelerates (it never negotiates); on every refresh, any managed plan
    // that now collides with the prediction is rescheduled around it.
    {
      const aim::PlanOccupancy virtual_occ =
          aim::plan_occupancy(*ctx_.intersection, plan, 250);
      std::vector<VehicleId> to_replan;
      for (const auto& [vid, mp] : active_plans_) {
        if (vid == obs.id || mp.unmanaged || mp.evacuation) continue;
        const auto it = occ_cache.try_emplace(vid).first;
        if (it->second.route_id < 0) {
          it->second = aim::plan_occupancy(*ctx_.intersection, mp, 250);
        }
        if (aim::occupancies_conflict(virtual_occ, it->second)) {
          to_replan.push_back(vid);
        }
      }
      for (VehicleId vid : to_replan) {
        const aim::TravelPlan& old_plan = active_plans_.at(vid);
        const double cur_s = old_plan.s_at(now);
        aim::TravelPlan replacement = scheduler_.reschedule(
            vid, old_plan.route_id, old_plan.traits, now, cur_s);
        active_plans_[vid] = replacement;
        occ_cache.erase(vid);  // recomputed lazily if a later pair needs it
        fresh.push_back(std::move(replacement));
      }
    }
    fresh.push_back(std::move(plan));
  }
  // Forget unmanaged vehicles that left perception.
  for (auto it = unmanaged_ids_.begin(); it != unmanaged_ids_.end();) {
    if (!ctx_.sensors->observe(*it)) {
      active_plans_.erase(*it);
      parked_since_.erase(*it);
      courtesy_retry_at_.erase(*it);
      scheduler_.release_vehicle(*it);
      it = unmanaged_ids_.erase(it);
    } else {
      ++it;
    }
  }
  return fresh;
}

void ImNode::prune_exited_plans(Tick now) {
  for (auto it = active_plans_.begin(); it != active_plans_.end();) {
    const auto& route = ctx_.intersection->route(it->second.route_id);
    if (it->second.s_at(now) >= route.path.length()) {
      it = active_plans_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ImNode::try_inject_conflict(std::vector<aim::TravelPlan>& plans, Tick now) {
  // Find a fresh plan whose route conflicts with an already-active plan, then
  // warp its core entry onto the victim's so they meet inside a shared zone.
  for (aim::TravelPlan& candidate : plans) {
    for (const traffic::ZoneRef& ref :
         ctx_.intersection->zones_for(candidate.route_id)) {
      const traffic::Zone& zone =
          ctx_.intersection->zones()[static_cast<std::size_t>(ref.zone_id)];
      const int other_route =
          zone.route_a == candidate.route_id ? zone.route_b : zone.route_a;
      for (const auto& [vid, victim] : active_plans_) {
        if (victim.route_id != other_route) continue;
        if (victim.core_entry <= now + 2000) continue;  // need time to collide
        // The forged plan must be kinematically plausible (reachable within
        // the speed limit), or the victim could not follow it and watchers
        // would flag the discrepancy instead of the scheduling conflict.
        const double d =
            ctx_.intersection->route(candidate.route_id).core_begin;
        const double limit = ctx_.intersection->config().limits.speed_limit_mps;
        if (victim.core_entry <
            now + seconds_to_ticks(d / limit)) {
          continue;
        }
        candidate = aim::make_profile_plan(*ctx_.intersection, candidate.vehicle,
                                           candidate.route_id, candidate.traits, now,
                                           0.0, victim.core_entry, 4.0);
        NWADE_LOG(kInfo) << "malicious IM: plan for vehicle "
                         << candidate.vehicle.value << " warped onto vehicle "
                         << vid.value;
        return true;
      }
    }
  }
  return false;
}

// --- message dispatch --------------------------------------------------------------

void ImNode::on_message(const net::Envelope& env) {
  if (down_) return;  // belt-and-braces; outage links are dropped in the net
  const Tick now = ctx_.clock->now();
  if (const auto* pr = dynamic_cast<const PlanRequest*>(env.msg.get())) {
    handle_plan_request(*pr);
  } else if (const auto* ir = dynamic_cast<const IncidentReport*>(env.msg.get())) {
    handle_incident_report(*ir, now);
  } else if (const auto* vr = dynamic_cast<const VerifyResponse*>(env.msg.get())) {
    handle_verify_response(*vr);
  } else if (const auto* br = dynamic_cast<const BlockRequest*>(env.msg.get())) {
    handle_block_request(*br, env.from);
  }
  // Global reports reach the IM too; a benign IM needs no action beyond what
  // report verification already covers, and a malicious one ignores them.
}

void ImNode::handle_plan_request(const PlanRequest& req) {
  // Blacklisted vehicle — confirmed here or imported from a neighboring IM
  // via cross-IM gossip: refuse service. The request is dropped before the
  // duplicate check so even a suspect holding a stale plan gets nothing new;
  // the vehicle burns its retries and falls back to the sensor-gated
  // degraded crossing, never holding a reservation through the conflict
  // zone. The counter is created lazily so runs that never reject keep their
  // telemetry snapshots (and golden digests) unchanged.
  if (confirmed_suspects_.contains(req.vehicle)) {
    if (ctx_.registry != nullptr) {
      ctx_.registry->counter("nwade.plan_rejections").inc();
    }
    trace_instant("im", "plan_rejected_blacklisted", ctx_.clock->now(),
                  static_cast<std::int64_t>(req.vehicle.value));
    return;
  }
  // Duplicate request: the vehicle lost our block. Re-send the block that
  // carries its plan instead of double-scheduling it.
  if (active_plans_.contains(req.vehicle)) {
    if (chain::BlockPtr block = recent_blocks_.block_with_plan(req.vehicle)) {
      auto resp = std::make_shared<BlockResponse>();
      resp->plan_of = req.vehicle;
      resp->block = std::move(block);
      ctx_.network->unicast(node_id(), vehicle_node(req.vehicle), std::move(resp));
    }
    return;
  }
  for (const PlanRequest& pending : pending_requests_) {
    if (pending.vehicle == req.vehicle) return;  // already queued this window
  }
  pending_requests_.push_back(req);
}

void ImNode::handle_block_request(const BlockRequest& req, NodeId from) {
  chain::BlockPtr found = req.by_seq ? recent_blocks_.by_seq(req.seq)
                                     : recent_blocks_.block_with_plan(req.plan_of);
  if (found == nullptr) return;
  auto resp = std::make_shared<BlockResponse>();
  resp->plan_of = req.plan_of;
  resp->block = std::move(found);
  ctx_.network->unicast(node_id(), from, std::move(resp));
}

// --- report verification (Section IV-B2) ----------------------------------------------

void ImNode::handle_incident_report(const IncidentReport& report, Tick now) {
  if (silenced(now)) return;  // compromised IM stonewalls

  const VehicleId suspect = report.evidence.suspect;
  if (!suspect.valid() || suspect == report.reporter) return;
  trace_instant("nwade", "incident_report_received", now,
                static_cast<std::int64_t>(suspect.value));
  if (confirmed_suspects_.contains(suspect)) return;

  if (report.misbehavior_claim) {
    // A vehicle denounces `suspect` for a false global report about block
    // `block_seq`. A benign IM knows its own chain is clean, so the claim
    // checks out by construction: record the liar for future reference.
    reporter_strikes_[suspect]++;
    ctx_.metrics->malicious_reports_recorded++;
    return;
  }

  // Sham-alert collusion: a compromised IM "confirms" the colluders' false
  // report immediately, without verification.
  if (attack_.mode == ImAttackMode::kShamAlert && now >= attack_.trigger_at &&
      ctx_.malicious_ids->contains(report.reporter) && !sham_alert_sent_) {
    sham_alert_sent_ = true;
    confirm_threat(suspect, now);
    return;
  }

  // Already verifying this suspect? Register the extra reporter.
  if (const auto it = round_by_suspect_.find(suspect); it != round_by_suspect_.end()) {
    rounds_[it->second].reporters.insert(report.reporter);
    return;
  }

  // Direct perception path.
  const auto obs = ctx_.sensors->observe(suspect);
  if (obs &&
      obs->status.position.norm() <= ctx_.config->im_perception_radius_m) {
    const auto plan_it = active_plans_.find(suspect);
    if (plan_it != active_plans_.end()) {
      // Deviation from an evacuation profile or from a freshly issued plan
      // is delivery noise, not evidence: the block carrying the plan may
      // still be in flight (or lost and awaiting gap recovery), so the
      // suspect cannot yet be following it. A stopped suspect is likewise no
      // longer a trajectory threat — the same criterion
      // check_evacuation_progress uses to declare a threat cleared. Without
      // this gate a lossy channel turns one genuine evacuation into a
      // cascade: vehicles mid-maneuver (or stranded on pre-evacuation plans)
      // get reported, confirmed, and evacuate yet more vehicles.
      if (plan_it->second.evacuation ||
          now - plan_it->second.issued_at < ctx_.config->plan_grace_ms ||
          obs->status.speed_mps < 0.5) {
        dismiss_alarm(suspect, {report.reporter}, now);
        return;
      }
      const auto& route = ctx_.intersection->route(plan_it->second.route_id);
      const double dev =
          (obs->status.position - plan_it->second.expected_status(route, now).position)
              .norm();
      // Hysteresis: an independent report corroborated by the IM's own
      // sensors near the threshold is enough to confirm; this avoids losing
      // borderline reports to the 30 ms the evidence aged in flight.
      if (dev > 0.8 * ctx_.config->deviation_tolerance_m) {
        confirm_threat(suspect, now);
      } else {
        dismiss_alarm(suspect, {report.reporter}, now);
      }
      return;
    }
  }

  // Distributed verification path.
  start_verification(suspect, report.reporter, now);
}

void ImNode::start_verification(VehicleId suspect, VehicleId reporter, Tick now) {
  VerificationRound round;
  round.id = next_round_id_++;
  round.suspect = suspect;
  round.reporters.insert(reporter);
  round.started_at = now;
  round.asked_ever.insert(reporter);  // the reporter already voted, in effect
  const std::uint64_t id = round.id;
  rounds_[id] = std::move(round);
  round_by_suspect_[suspect] = id;
  ctx_.metrics->verify_rounds++;
  trace_instant("nwade", "verify_round_start", now,
                static_cast<std::int64_t>(suspect.value));
  set_state(ImState::kReportVerification);

  if (ask_group(rounds_[id], now) == 0) {
    // Nobody around to ask: fall back to trusting the single report.
    confirm_threat(suspect, now);
    trace_round_end(rounds_[id], now);
    rounds_.erase(id);
    round_by_suspect_.erase(suspect);
    return;
  }
  {
    const Tick when = now + ctx_.config->verification_round_ms;
    const std::uint64_t seq =
        ctx_.queue->schedule_at(when, [this, id] { tally_round(id); });
    pending_tallies_[id] = PendingEvent{seq, when};
  }
}

int ImNode::ask_group(VerificationRound& round, Tick now) {
  (void)now;
  // Verifiers = vehicles near the suspect (by last known/expected position).
  geom::Vec2 center{0, 0};
  if (const auto obs = ctx_.sensors->observe(round.suspect)) {
    center = obs->status.position;
  } else if (const auto it = active_plans_.find(round.suspect);
             it != active_plans_.end()) {
    const auto& route = ctx_.intersection->route(it->second.route_id);
    center = route.path.point_at(it->second.s_at(ctx_.clock->now()));
  }
  ctx_.sensors->sense_around_into(center, ctx_.config->sensing_radius_m,
                                  round.suspect, sense_buf_);
  auto& candidates = sense_buf_;
  std::sort(candidates.begin(), candidates.end(),
            [&](const Observation& a, const Observation& b) {
              return a.status.position.distance_to(center) <
                     b.status.position.distance_to(center);
            });
  // One immutable request shared across the whole verifier group — the same
  // serialize-once pattern broadcast fan-outs use, instead of a fresh
  // allocation per unicast.
  auto req = std::make_shared<VerifyRequest>();
  req->request_id = round.id;
  req->suspect = round.suspect;
  int asked = 0;
  for (const Observation& obs : candidates) {
    if (asked >= kVerifierGroupSize) break;
    if (round.asked_ever.contains(obs.id)) continue;  // disjoint second group
    round.asked_ever.insert(obs.id);
    ctx_.network->unicast(node_id(), vehicle_node(obs.id), req);
    ++asked;
  }
  return asked;
}

void ImNode::handle_verify_response(const VerifyResponse& resp) {
  if (silenced(ctx_.clock->now())) return;
  const auto it = rounds_.find(resp.request_id);
  if (it == rounds_.end()) return;
  it->second.votes[resp.responder] = resp.abnormal;
}

void ImNode::tally_round(std::uint64_t round_id) {
  pending_tallies_.erase(round_id);  // this deadline has now fired
  const auto it = rounds_.find(round_id);
  if (it == rounds_.end()) return;
  VerificationRound& round = it->second;
  const Tick now = ctx_.clock->now();

  int abnormal = 0, normal = 0;
  for (const auto& [voter, vote] : round.votes) (vote ? abnormal : normal)++;
  const bool majority_abnormal = abnormal > normal;

  if (round.phase == 1) {
    if (!majority_abnormal) {
      dismiss_alarm(round.suspect, round.reporters, now);
      trace_round_end(round, now);
      round_by_suspect_.erase(round.suspect);
      rounds_.erase(it);
      if (state_ == ImState::kReportVerification) set_state(ImState::kStandby);
      return;
    }
    // Majority says abnormal: evacuate now for safety, but double-check with
    // a second, disjoint group to defeat majority-vote gaming (Section IV-B2).
    confirm_threat(round.suspect, now);
    if (!ctx_.config->double_check_verification) {
      trace_round_end(round, now);
      round_by_suspect_.erase(round.suspect);
      rounds_.erase(it);
      return;
    }
    round.phase = 2;
    round.votes.clear();
    if (ask_group(round, now) == 0) {
      // No second group available; the evacuation stands.
      trace_round_end(round, now);
      round_by_suspect_.erase(round.suspect);
      rounds_.erase(it);
      return;
    }
    ctx_.metrics->verify_rounds++;
    const std::uint64_t id = round.id;
    const Tick when = now + ctx_.config->verification_round_ms;
    const std::uint64_t seq =
        ctx_.queue->schedule_at(when, [this, id] { tally_round(id); });
    pending_tallies_[id] = PendingEvent{seq, when};
    return;
  }

  // Phase 2.
  if (!majority_abnormal) {
    // The second group contradicts the first: the alarm was false after all.
    // Cancel the evacuation and recover.
    NWADE_LOG(kInfo) << "IM: second verifier group cleared vehicle "
                     << round.suspect.value << "; cancelling evacuation";
    confirmed_suspects_.erase(round.suspect);
    evacuation_suspect_ = VehicleId{};
    dismiss_alarm(round.suspect, round.reporters, now);
    finish_evacuation(now);
  }
  trace_round_end(round, now);
  round_by_suspect_.erase(round.suspect);
  rounds_.erase(it);
}

void ImNode::dismiss_alarm(VehicleId suspect, const std::set<VehicleId>& reporters,
                           Tick now) {
  ctx_.metrics->alarm_dismissals++;
  trace_instant("nwade", "alarm_dismiss", now,
                static_cast<std::int64_t>(suspect.value));
  bool any_malicious = false;
  for (VehicleId reporter : reporters) {
    // "record V_x's identity for future reference in case V_x is malicious".
    reporter_strikes_[reporter]++;
    ctx_.metrics->malicious_reports_recorded++;
    if (ctx_.malicious_ids->contains(reporter)) any_malicious = true;
  }
  if (any_malicious && !ctx_.metrics->false_incident_dismissed) {
    ctx_.metrics->false_incident_dismissed = now;
  }
  // Broadcast so every vehicle can discount global reports about the suspect.
  auto msg = std::make_shared<AlarmDismiss>();
  msg->suspect = suspect;
  if (!reporters.empty()) msg->reporter = *reporters.begin();
  ctx_.network->broadcast(node_id(), std::move(msg));
  if (state_ == ImState::kReportVerification) set_state(ImState::kStandby);
}

// --- evacuation / recovery (Section IV-B5) ------------------------------------------------

std::vector<aim::ActiveVehicle> ImNode::active_vehicles(Tick now,
                                                        VehicleId exclude) const {
  std::vector<aim::ActiveVehicle> out;
  for (const auto& [vid, plan] : active_plans_) {
    if (vid == exclude) continue;
    // Legacy vehicles cannot receive or follow plans; evacuation and
    // recovery only replan the managed fleet (virtual predictions resume at
    // the next processing window).
    if (plan.unmanaged) continue;
    const auto& route = ctx_.intersection->route(plan.route_id);
    const double s = plan.s_at(now);
    if (s >= route.path.length()) continue;
    out.push_back(aim::ActiveVehicle{vid, plan.route_id, plan.traits, s,
                                     plan.v_at(now)});
  }
  return out;
}

bool ImNode::import_blacklist(VehicleId suspect, Tick now) {
  // Crashed IMs miss gossip rounds; the grid re-sends cumulative snapshots
  // every interval, so a restarted node converges one round later.
  if (down_) return false;
  if (!confirmed_suspects_.insert(suspect).second) return false;
  if (ctx_.registry != nullptr) {
    ctx_.registry->counter("nwade.blacklist_imports").inc();
  }
  trace_instant("im", "blacklist_import", now,
                static_cast<std::int64_t>(suspect.value));
  return true;
}

void ImNode::confirm_threat(VehicleId suspect, Tick now) {
  if (confirmed_suspects_.contains(suspect)) return;
  confirmed_suspects_.insert(suspect);
  evacuation_suspect_ = suspect;
  suspect_stopped_checks_ = 0;
  set_state(ImState::kEvacuation);
  ctx_.metrics->evacuation_alerts++;
  trace_instant("nwade", "evacuation_alert", now,
                static_cast<std::int64_t>(suspect.value));
  if (ctx_.malicious_ids->contains(suspect)) {
    if (!ctx_.metrics->deviation_confirmed) ctx_.metrics->deviation_confirmed = now;
  } else {
    // Evacuating because of an innocent vehicle: the attacker's false alarm
    // succeeded in disrupting traffic.
    ctx_.metrics->false_alarm_evacuations++;
  }

  // Alert first (identifiable features + location), plans right after.
  auto alert = std::make_shared<EvacuationAlert>();
  alert->suspect = suspect;
  if (const auto obs = ctx_.sensors->observe(suspect)) {
    alert->suspect_traits = obs->traits;
    alert->last_known = obs->status;
  } else if (const auto it = active_plans_.find(suspect); it != active_plans_.end()) {
    alert->suspect_traits = it->second.traits;
    const auto& route = ctx_.intersection->route(it->second.route_id);
    alert->last_known = it->second.expected_status(route, now);
  }
  const geom::Vec2 threat_pos = alert->last_known.position;
  ctx_.network->broadcast(node_id(), std::move(alert));

  aim::ThreatInfo threat;
  threat.position = threat_pos;
  threat.radius_m = ctx_.config->threat_radius_m;
  threat.suspect = suspect;
  auto plans = scheduler_.plan_evacuation(active_vehicles(now, suspect), threat, now);
  for (const aim::TravelPlan& p : plans) active_plans_[p.vehicle] = p;
  publish_block(std::move(plans), /*count_timing=*/true);
  set_state(ImState::kEvacuation);
}

void ImNode::check_evacuation_progress() {
  const Tick now = ctx_.clock->now();
  const auto obs = ctx_.sensors->observe(evacuation_suspect_);
  const bool gone = !obs || obs->status.position.norm() >
                                ctx_.config->im_perception_radius_m;
  const bool stopped = obs && obs->status.speed_mps < 0.5;
  if (stopped) {
    suspect_stopped_checks_++;
  } else if (!gone) {
    suspect_stopped_checks_ = 0;
  }
  if (gone || suspect_stopped_checks_ >= 3) {
    finish_evacuation(now);
  }
}

void ImNode::finish_evacuation(Tick now) {
  set_state(ImState::kRecovery);
  auto plans = scheduler_.plan_recovery(active_vehicles(now, evacuation_suspect_), now);
  for (const aim::TravelPlan& p : plans) active_plans_[p.vehicle] = p;
  publish_block(std::move(plans), /*count_timing=*/true);
  evacuation_suspect_ = VehicleId{};
  set_state(ImState::kStandby);
}

template <class Ar, class Self>
void ImNode::io(Ar& ar, Self& im) {
  ar.enum8(im.state_, ImState::kRecovery);
  ar.seq(im.pending_requests_, 16, [](auto& a, auto& req) { a(req); });
  ar.map(im.active_plans_, 8, [](auto& a, auto& id, auto& plan) {
    a.id(id);
    a.sized(plan);
  });
  ar.digest(im.prev_hash_);
  ar.u64(im.seq_);
  chain::BlockStore::blocks_io(ar, im.recent_blocks_);
  ar.map(im.rounds_, 16, [](auto& a, auto& id, auto& round) {
    a.u64(id);
    a.id(round.suspect);
    a.ids(round.reporters);
    a.i64(round.phase);
    a.i64(round.started_at);
    a.ids(round.asked_ever);
    a.map(round.votes, 9, [](auto& b, auto& voter, auto& abnormal) {
      b.id(voter);
      b.flag(abnormal);
    });
  });
  ar.u64(im.next_round_id_);
  ar.map(im.reporter_strikes_, 16, [](auto& a, auto& id, auto& strikes) {
    a.id(id);
    a.i64(strikes);
  });
  ar.ids(im.unmanaged_ids_);
  ar.tick_map(im.parked_since_);
  ar.tick_map(im.courtesy_retry_at_);
  ar.i64(im.courtesy_until_);
  ar.ids(im.ever_planned_);
  ar.flag(im.down_);
  ar.id(im.evacuation_suspect_);
  ar.i64(im.suspect_stopped_checks_);
  ar.ids(im.confirmed_suspects_);
  ar.flag(im.conflict_injected_);
  ar.flag(im.sham_alert_sent_);
  ar(im.scheduler_);
  ar.maybe(im.window_event_, [](auto& a, auto& ev) { a(ev); });
  ar.map(im.pending_tallies_, 24, [](auto& a, auto& id, auto& ev) {
    a.u64(id);
    a(ev);
  });
  if constexpr (Ar::kReading) {
    if (!ar.ok()) return;
    im.round_by_suspect_.clear();
    for (auto& [id, round] : im.rounds_) {
      round.id = id;
      im.round_by_suspect_[round.suspect] = id;
    }
    // Re-arm the pending timers at their exact historical queue coordinates.
    if (im.window_event_.has_value()) {
      im.ctx_.queue->schedule_at_seq(im.window_event_->when, im.window_event_->seq,
                                     [&im] {
                                       im.process_window();
                                       im.start();  // re-arm the next window
                                     });
    }
    for (const auto& [id, ev] : im.pending_tallies_) {
      const std::uint64_t round_id = id;
      im.ctx_.queue->schedule_at_seq(ev.when, ev.seq,
                                     [&im, round_id] { im.tally_round(round_id); });
    }
  }
}
template void ImNode::io(WriteArchive&, const ImNode&);
template void ImNode::io(ReadArchive&, ImNode&);

}  // namespace nwade::protocol
