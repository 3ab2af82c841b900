// The NWADE vehicle: one of the paper's event-driven finite automata (Fig. 2,
// 8 states) plus the physical vehicle it drives.
//
// Responsibilities (Section IV):
//   * Normal traveling — request a plan, verify received blocks (Alg. 1),
//     follow the plan.
//   * Local verification — the neighbourhood watch (Alg. 2): compare each
//     sensed neighbour against its plan; report deviations to the IM; wait
//     for the IM's verdict with a timeout.
//   * Global verification — evaluate peers' global reports (Alg. 3).
//   * Self-evacuation — leave or stop safely when the IM can no longer be
//     trusted, and warn everyone else.
//
// A vehicle can also be the attacker: a deviator that physically breaks its
// plan, or a false reporter injecting fabricated incident/global reports and
// lying in verification votes (Table I's attack settings).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "chain/store.h"
#include "net/network.h"
#include "nwade/config.h"
#include "nwade/messages.h"
#include "nwade/metrics.h"
#include "nwade/sensor.h"
#include "traffic/types.h"

namespace nwade::protocol {

/// Fig. 2, vehicle side: the 8 automaton states.
enum class VehicleState : std::uint8_t {
  kPreparation = 0,       ///< entered the communication zone, awaiting a plan
  kBlockVerification,     ///< running Algorithm 1 on a received block
  kTraveling,             ///< following the assigned plan
  kLocalVerification,     ///< running Algorithm 2 on a neighbour
  kAwaitingResponse,      ///< reported an incident, waiting for the IM
  kGlobalVerification,    ///< evaluating peers' global reports (Algorithm 3)
  kSelfEvacuation,        ///< the IM is untrusted; leaving on its own
  kDegraded,              ///< no plan after all retries: sensor-gated crossing
  kExited,                ///< left the intersection
};

const char* vehicle_state_name(VehicleState s);

enum class VehicleRole : std::uint8_t {
  kBenign = 0,
  kDeviator,        ///< physically violates its travel plan
  kFalseReporter,   ///< injects fabricated reports, lies in votes
};

enum class DeviationMode : std::uint8_t { kAccelerate = 0, kBrake };

/// Which lie a false reporter tells (Table II's two false-alarm types).
enum class FalseReportKind : std::uint8_t {
  kIncident = 0,    ///< Type A: claims a benign vehicle violates its plan
  kWrongPlans = 1,  ///< Type B: claims the IM issued conflicting plans
};

struct VehicleAttackProfile {
  VehicleRole role{VehicleRole::kBenign};
  Tick trigger_at{0};
  DeviationMode deviation{DeviationMode::kAccelerate};
  FalseReportKind false_report{FalseReportKind::kIncident};

  template <class Ar, class Self> static void io(Ar& ar, Self& p) {
    ar.enum8(p.role, VehicleRole::kFalseReporter);
    ar.i64(p.trigger_at);
    ar.enum8(p.deviation, DeviationMode::kBrake);
    ar.enum8(p.false_report, FalseReportKind::kWrongPlans);
  }
};

/// Shared, world-owned services handed to every vehicle.
struct VehicleContext {
  const traffic::Intersection* intersection{nullptr};
  const NwadeConfig* config{nullptr};
  net::Network* network{nullptr};
  net::SimClock* clock{nullptr};
  const SensorProvider* sensors{nullptr};
  std::shared_ptr<const crypto::Verifier> im_verifier;
  Metrics* metrics{nullptr};
  /// Ground truth for metrics classification only — never consulted by the
  /// protocol logic of benign vehicles. Malicious vehicles use it as their
  /// collusion roster.
  const std::set<VehicleId>* malicious_ids{nullptr};
  /// Optional telemetry (nullptr = no trace); injected by the World.
  util::telemetry::Registry* registry{nullptr};
  util::trace::Tracer* tracer{nullptr};
};

/// One neighbourhood watch in flight: the sensor sweep and what Algorithm
/// 2's pure half decided about it (VehicleNode::watch_scan), consumed by the
/// serial commit (watch_emit) in the same watch phase. The caller owns it
/// and may reuse it for any vehicle's next watch, so vehicles hold no watch
/// memory between watches.
struct WatchScratch {
  /// The decision on observations[obs]: request the neighbour's plan block
  /// (no plan known for it), or report it as deviating by `deviation_m`.
  struct Action {
    std::uint32_t obs{0};
    bool request_block{false};
    double deviation_m{0};
  };
  std::vector<Observation> observations;
  std::vector<Action> actions;
};

class VehicleNode final : public net::Node {
 public:
  VehicleNode(VehicleContext ctx, VehicleId id, int route_id,
              traffic::VehicleTraits traits, Tick spawn_time,
              VehicleAttackProfile attack = {});

  // --- net::Node -------------------------------------------------------------
  NodeId node_id() const override { return vehicle_node(id_); }
  geom::Vec2 position() const override;
  void on_message(const net::Envelope& env) override;

  // --- driven by the world ----------------------------------------------------
  /// Sends the plan request; call once when the vehicle spawns.
  void start();
  /// Physics + timers; call every simulation step.
  void step(Tick now, Duration dt_ms);

  /// Neighbourhood watch (Algorithm 2), run every watch interval in three
  /// parts: eligibility, the pure half, then the commit. One watch is
  /// watch_due() ? (watch_scan(now, w), watch_emit(now, w)) : nothing.
  bool watch_due(Tick now) const;
  /// The pure half, safe to run concurrently for different vehicles: senses
  /// the frozen scene into `w.observations`, then a benign watcher runs
  /// Algorithm 2's filters on every observation (cooldowns, confirmed
  /// threats, announced self-evacuees, the plan grace window, the deviation
  /// from the plan's expected position, the stationary-shoulder test) and
  /// records the survivors in `w.actions`. Reads only this vehicle's own
  /// protocol state, which no other vehicle's commit can change before the
  /// next queue run.
  void watch_scan(Tick now, WatchScratch& w) const;
  /// The commit, serial in id order: a false reporter's attack, the pending
  /// sham-alert check, then the recorded actions (block requests, incident
  /// reports and their state transitions) in observation order.
  void watch_emit(Tick now, const WatchScratch& w);

  // --- introspection ------------------------------------------------------------
  VehicleId id() const { return id_; }
  int route_id() const { return route_id_; }
  const traffic::VehicleTraits& traits() const { return traits_; }
  VehicleState state() const { return state_; }
  bool exited() const { return state_ == VehicleState::kExited; }
  bool self_evacuating() const { return state_ == VehicleState::kSelfEvacuation; }
  bool degraded() const { return state_ == VehicleState::kDegraded; }
  int plan_request_retries() const { return plan_retries_; }
  bool is_malicious() const { return attack_.role != VehicleRole::kBenign; }
  double progress_s() const { return s_; }
  double speed_mps() const { return v_; }
  double lateral_offset_m() const { return lateral_offset_; }
  /// Ground-truth observable status.
  traffic::VehicleStatus ground_truth() const;
  const chain::BlockStore& store() const { return store_; }
  bool has_plan() const { return plan_.has_value(); }
  const aim::TravelPlan* plan() const { return plan_ ? &*plan_ : nullptr; }
  /// Vehicles that announced self-evacuation via global reports (watchers
  /// skip them: their deviation is declared, not an attack).
  const std::set<VehicleId>& self_evac_announced() const;
  Tick spawn_time() const { return spawn_time_; }
  const VehicleAttackProfile& attack_profile() const { return attack_; }

  /// Grid boundary handoff: seeds the carried-over entry speed right after
  /// construction, before the vehicle's first step.
  void seed_speed(double v_mps) { v_ = v_mps; }

  // --- checkpoint/restore (sim/checkpoint) -----------------------------------
  /// Field list of all dynamic state: automaton state, kinematics, the block
  /// store, plan caches, suspect/cooldown tables, retransmission timers and
  /// attack latches. Constructor arguments (id, route, traits, spawn time,
  /// attack profile) are NOT included — the world records those alongside so
  /// it can reconstruct the node before reading onto it. start() must not be
  /// called on a restored vehicle (its spawn happened before the
  /// checkpoint); its store's blocks come from the archive's BlockTable.
  template <class Ar, class Self> static void io(Ar& ar, Self& v);

 private:
  /// Records an instant on the detection timeline, tagged with this
  /// vehicle's id (no-op unless tracing is active).
  void trace_instant(const char* cat, const char* name, Tick now) const;

  // Message handlers.
  void handle_block(const chain::BlockPtr& block, Tick now);
  void handle_block_request(const BlockRequest& req, NodeId from);
  void handle_block_response(const BlockResponse& resp, Tick now);
  void handle_verify_request(const VerifyRequest& req, Tick now);
  void handle_alarm_dismiss(const AlarmDismiss& msg, Tick now);
  void handle_evacuation_alert(const EvacuationAlert& alert, Tick now);
  void handle_global_report(const GlobalReport& report, Tick now);

  // Algorithm 1 (full block verification) — returns false on any failure.
  bool verify_block(const chain::BlockPtr& block, Tick now, std::string* why);
  /// A block failed verification: the IM is compromised, so self-evacuate.
  void reject_block(chain::BlockSeq seq, const std::string& why, Tick now);

  // Algorithm 2 helpers.
  const aim::TravelPlan* lookup_plan(VehicleId vehicle) const;
  void request_plan_block(VehicleId vehicle, Tick now);
  /// Compares an observation to its plan; returns the deviation in metres
  /// (nullopt when the neighbour's plan is unknown).
  std::optional<double> deviation_of(const Observation& obs, Tick now) const;
  /// Distance between the observed position and where `plan` puts its
  /// vehicle at `now` (expected_status().position, without the speed and
  /// heading it also computes).
  double deviation_from(const aim::TravelPlan& plan, const Observation& obs,
                        Tick now) const;
  void report_incident(const Observation& obs, double deviation, Tick now);

  // Attack behaviours. The caller hands run_attack the current sensor sweep
  // (same arguments the old internal sense used, same frozen scene) so the
  // watch phase senses exactly once per vehicle.
  void run_attack(Tick now, const std::vector<Observation>& observations);
  void inject_false_incident(Tick now,
                             const std::vector<Observation>& observations);
  void inject_false_global(Tick now);

  // Self-evacuation entry point.
  void enter_self_evacuation(GlobalReason reason, VehicleId suspect, Tick now);

  // Plan-request retransmission + degraded mode (fault tolerance).
  void send_plan_request();
  void retry_plan_request(Tick now);
  void enter_degraded(Tick now);
  void step_degraded(Tick now, double dt, const traffic::Route& route);
  /// True when our sensors show the conflict area clear for long enough to
  /// cross it at the degraded creep speed (see docs/FAULT_MODEL.md).
  bool degraded_box_clear(Tick now) const;

  /// Majority threshold adapted to the locally sensed neighbourhood size.
  int adaptive_threshold() const;

  void set_state(VehicleState next) { state_ = next; }

  VehicleContext ctx_;
  VehicleId id_;
  int route_id_;
  traffic::VehicleTraits traits_;
  Tick spawn_time_;
  VehicleAttackProfile attack_;

  VehicleState state_{VehicleState::kPreparation};

  // Physical ground truth.
  double s_{0};               ///< arc-length progress along the route path (m)
  double v_{0};               ///< speed (m/s)
  double lateral_offset_{0};  ///< deviators drift off the lane centreline (m)

  // Protocol state.
  chain::BlockStore store_;
  std::optional<aim::TravelPlan> plan_;
  std::map<VehicleId, aim::TravelPlan> extra_plans_;  ///< from BlockResponses
  /// Suspects reported recently (cooldown, not permanent: a deviation that
  /// survives a dismissal keeps growing and must be re-reported).
  std::map<VehicleId, Tick> reported_suspects_;
  std::map<VehicleId, Tick> block_requests_inflight_;
  /// Recently dismissed suspects (cooldown; see reported_suspects_).
  std::map<VehicleId, Tick> dismissed_suspects_;
  std::set<VehicleId> self_evac_announced_;
  std::set<chain::BlockSeq> pending_conflict_claims_;
  std::set<VehicleId> denounced_reporters_;
  std::map<VehicleId, std::set<VehicleId>> global_reporters_per_suspect_;
  std::set<VehicleId> im_distrust_reporters_;
  std::optional<VehicleId> sham_check_suspect_;
  Tick sham_check_after_{0};  ///< let the scene settle before judging
  std::set<VehicleId> confirmed_threats_;
  Tick awaiting_deadline_{0};
  VehicleId awaiting_suspect_;
  int awaiting_retries_{0};
  // Plan-request retransmission state (capped exponential backoff).
  int plan_retries_{0};
  Tick next_plan_request_at_{0};
  /// Last time any block broadcast reached us: while the chain is alive we
  /// never fall back to degraded mode, no matter how many retries failed.
  Tick last_block_seen_at_{0};
  // Degraded-mode state.
  bool degraded_committed_{false};  ///< cleared to cross; no more re-checks
  Tick next_clear_check_at_{0};
  double shoulder_side_{1.0};  ///< which side of the lane to hold on (+-1)
  // Verify-request rounds already answered (idempotency under duplication).
  std::set<std::uint64_t> answered_verify_rounds_;
  // Shorter than the IM-response timeout so a watcher that reported a
  // self-evacuee always hears the announcement before giving up on the IM.
  static constexpr Duration kBeaconPeriodMs = 2000;
  static constexpr Duration kReportCooldownMs = 4000;
  static constexpr Duration kDismissCooldownMs = 5000;
  Tick last_beacon_at_{0};
  GlobalReason last_evac_reason_{GlobalReason::kConflictingPlans};
  VehicleId last_evac_suspect_;
  bool attack_fired_{false};
  bool global_report_sent_{false};
  int sensed_neighbours_{0};
};

}  // namespace nwade::protocol
