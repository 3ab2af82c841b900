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

#include <map>
#include <set>

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
  /// SoA home for the vehicle's kinematic hot state (progress, speed,
  /// lateral offset); required. The node claims one row at construction and
  /// its s_/v_/lateral_offset_ references alias the column slots, so the
  /// world's phase kernels can stream every vehicle's kinematics
  /// contiguously. Must outlive the node and must be reserve()d for every
  /// row it will ever hold.
  traffic::VehicleColumns* columns{nullptr};
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

  // Deterministic-parallel seams. The world classifies every vehicle from
  // its own pre-step state, runs maximal side-effect-free runs through
  // step_kinematics() on the worker pool, and serializes everything else at
  // its exact id position — byte-identical to calling step() on each
  // vehicle in id order.
  /// True when step(now, ·) could do more than advance kinematics and latch
  /// the exit state: send messages, touch shared metrics, sense, or take a
  /// protocol transition. Pure function of this vehicle's own state, and
  /// stable across earlier vehicles' steps (their physics cannot change the
  /// inputs), so the whole fleet can be classified up front.
  bool step_has_side_effects(Tick now) const;
  /// The side-effect-free slice of step(): advances s/v/lateral and latches
  /// kExited. Returns true when the vehicle exited this step; the caller
  /// owns the exit bookkeeping (exited metric, network removal, crossing
  /// time) the full step() would have done. Only valid when
  /// !step_has_side_effects(now). Safe to run concurrently with other
  /// vehicles' step_kinematics (touches only this vehicle's rows).
  bool step_kinematics(Tick now, Duration dt_ms);

  /// Neighbourhood watch, run every watch interval in three parts:
  /// eligibility (pure), the sensor sweep (read-only against the frozen
  /// scene — parallel-safe), then the emit half (reports/sends/state
  /// transitions — serial, id order). One watch is
  /// watch_due() ? (watch_scan(), watch_emit()) : nothing.
  bool watch_due(Tick now) const;
  void watch_scan(Tick now);
  void watch_emit(Tick now);

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
  /// SoA row this node claimed at construction. The checkpoint layer
  /// records it so a restored world can rebuild nodes in row order — which
  /// is spawn order, not necessarily id order once grid handoffs inject
  /// foreign ids mid-run.
  std::size_t kin_row() const { return kin_row_; }

  /// Grid boundary handoff: seeds the carried-over entry speed right after
  /// construction, before the vehicle's first step (a plain assignment
  /// through the kinematics reference into the SoA row).
  void seed_speed(double v_mps) { v_ = v_mps; }

  // --- checkpoint/restore (sim/checkpoint) -----------------------------------
  /// Serializes all dynamic state: automaton state, kinematics, the block
  /// store, plan caches, suspect/cooldown tables, retransmission timers and
  /// attack latches. Constructor arguments (id, route, traits, spawn time,
  /// attack profile) are NOT included — the world records those alongside so
  /// it can reconstruct the node before restoring onto it.
  void checkpoint_save(ByteWriter& w) const;
  /// Restores onto a freshly constructed node; start() must not be called on
  /// a restored vehicle (its spawn already happened before the checkpoint).
  /// Returns false on malformed input.
  bool checkpoint_restore(ByteReader& r);

 private:
  /// Records an instant on the detection timeline, tagged with this
  /// vehicle's id (no-op unless tracing is active).
  void trace_instant(const char* cat, const char* name, Tick now) const;

  // Message handlers.
  void handle_block(const chain::Block& block, Tick now);
  void handle_block_request(const BlockRequest& req, NodeId from);
  void handle_block_response(const BlockResponse& resp, Tick now);
  void handle_verify_request(const VerifyRequest& req, Tick now);
  void handle_alarm_dismiss(const AlarmDismiss& msg, Tick now);
  void handle_evacuation_alert(const EvacuationAlert& alert, Tick now);
  void handle_global_report(const GlobalReport& report, Tick now);

  // Algorithm 1 (full block verification) — returns false on any failure.
  bool verify_block(const chain::Block& block, Tick now, std::string* why);

  // Algorithm 2 helpers.
  const aim::TravelPlan* lookup_plan(VehicleId vehicle) const;
  void request_plan_block(VehicleId vehicle, Tick now);
  /// Compares an observation to its plan; returns the deviation in metres
  /// (nullopt when the neighbour's plan is unknown).
  std::optional<double> deviation_of(const Observation& obs, Tick now) const;
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

  void set_state(VehicleState next);

  VehicleContext ctx_;
  VehicleId id_;
  int route_id_;
  traffic::VehicleTraits traits_;
  Tick spawn_time_;
  VehicleAttackProfile attack_;

  VehicleState state_{VehicleState::kPreparation};

  // Physical ground truth. The values live in the world's SoA columns (one
  // claimed row) and the references alias the column slots; every method —
  // including the checkpoint byte layout — reads and writes through them.
  std::size_t kin_row_{0};
  double& s_;
  double& v_;
  double& lateral_offset_;  ///< deviators drift off the lane centreline

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
  /// Reused observation buffer: filled by watch_scan(), consumed by
  /// watch_emit() within the same watch phase. Transient scratch — never
  /// checkpointed, stale outside the phase.
  std::vector<Observation> obs_scratch_;
};

}  // namespace nwade::protocol
