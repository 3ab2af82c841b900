// The NWADE intersection manager: the paper's 7-state automaton (Fig. 2).
//
//   Standby -> Scheduling -> BlockPackaging -> Dissemination -> Standby
//      \-> ReportVerification -> (dismiss | Evacuation -> Recovery) -> Standby
//
// Every processing window (delta) it batches plan requests, runs the
// DASH-like reservation scheduler, packages the plans into a signed block
// (Section IV-B1), and broadcasts it. Incident reports trigger report
// verification (Section IV-B2): direct perception when the suspect is in
// range, otherwise two rounds of majority voting over disjoint verifier
// groups. Confirmed threats trigger evacuation and post-evacuation recovery
// (Section IV-B5).
//
// The node can also play the compromised IM of threat models (iii)/(iv):
// issuing conflicting travel plans and stonewalling incident reports.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "aim/scheduler.h"
#include "chain/store.h"
#include "net/clock.h"
#include "net/network.h"
#include "nwade/config.h"
#include "nwade/messages.h"
#include "nwade/metrics.h"
#include "nwade/sensor.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace nwade::protocol {

/// Fig. 2, intersection-manager side: the 7 automaton states.
enum class ImState : std::uint8_t {
  kStandby = 0,
  kScheduling,
  kBlockPackaging,
  kDissemination,
  kReportVerification,
  kEvacuation,
  kRecovery,
};

const char* im_state_name(ImState s);

enum class ImAttackMode : std::uint8_t {
  kNone = 0,
  /// Issue a pair of conflicting travel plans (threat model iii).
  kConflictingPlans,
  /// Conflicting plans + ignore incident reports (collusion, model iv).
  kConflictingPlansAndSilence,
  /// Ignore incident reports only (quiet collusion with vehicle attackers).
  kSilence,
  /// Issue a sham evacuation alert against a benign vehicle.
  kShamAlert,
};

struct ImAttackProfile {
  ImAttackMode mode{ImAttackMode::kNone};
  Tick trigger_at{0};
};

struct ImContext {
  const traffic::Intersection* intersection{nullptr};
  const NwadeConfig* config{nullptr};
  net::Network* network{nullptr};
  net::SimClock* clock{nullptr};
  net::EventQueue* queue{nullptr};
  const SensorProvider* sensors{nullptr};
  const crypto::Signer* signer{nullptr};
  Metrics* metrics{nullptr};
  /// Collusion roster for malicious modes; also used for metric labelling.
  const std::set<VehicleId>* malicious_ids{nullptr};
  /// Optional telemetry (nullptr = inert handles / no trace); the World
  /// injects its per-run registry and tracer here.
  util::telemetry::Registry* registry{nullptr};
  util::trace::Tracer* tracer{nullptr};
};

class ImNode final : public net::Node {
 public:
  ImNode(ImContext ctx, aim::SchedulerConfig scheduler_config = {},
         ImAttackProfile attack = {});

  // --- net::Node ----------------------------------------------------------
  NodeId node_id() const override { return kImNodeId; }
  geom::Vec2 position() const override { return {0, 0}; }
  void on_message(const net::Envelope& env) override;

  /// Schedules the periodic processing-window events; call once at t=0.
  void start();

  // --- fault injection (docs/FAULT_MODEL.md) --------------------------------
  /// Simulated crash: drops all volatile state (pending requests, verification
  /// rounds, the active-plan table). The signed chain (`recent_blocks_`, seq,
  /// prev hash) models durable storage and survives. While down the node
  /// ignores messages and skips processing windows; the network additionally
  /// blackholes its traffic when the crash comes from a FaultProfile outage.
  void crash(Tick now);
  /// Recovery: rebuilds `active_plans_` (newest plan per vehicle, exited ones
  /// pruned) and the managed-vehicle roster from the durable block log, then
  /// resumes normal window processing.
  void restart(Tick now);
  bool down() const { return down_; }

  // --- introspection --------------------------------------------------------
  ImState state() const { return state_; }
  std::size_t active_plan_count() const { return active_plans_.size(); }
  chain::BlockSeq next_seq() const { return seq_; }
  /// The IM's newest published blocks (the durable window it re-sends from).
  const chain::BlockStore& block_window() const { return recent_blocks_; }
  bool is_malicious() const { return attack_.mode != ImAttackMode::kNone; }
  const aim::ReservationScheduler& scheduler() const { return scheduler_; }
  /// Number of verification rounds currently awaiting a tally deadline.
  /// Lets tests place checkpoints *inside* a verify round.
  std::size_t active_verification_rounds() const { return rounds_.size(); }

  // --- cross-IM evidence gossip (sim::Grid) ---------------------------------
  /// Imports another intersection's confirmed threat into the local
  /// blacklist. Unlike confirm_threat this is forward-looking service
  /// refusal only: no evacuation, no state-machine transition — the suspect
  /// is (usually) not even here yet. Its future plan requests are rejected
  /// (handle_plan_request) and its revocation rides in every block this IM
  /// publishes. Returns true when the suspect was newly imported.
  bool import_blacklist(VehicleId suspect, Tick now);
  /// Confirmed locally or imported via gossip.
  bool is_blacklisted(VehicleId v) const { return confirmed_suspects_.contains(v); }
  const std::set<VehicleId>& confirmed_suspects() const {
    return confirmed_suspects_;
  }

  // --- checkpoint/restore (sim/checkpoint) ----------------------------------
  /// Field list of the full automaton: FSM state, plan tables, the durable
  /// block log, every verification round with its pending tally deadline,
  /// strike/blacklist tables, courtesy-gap timers, the scheduler's
  /// reservation tables, and the pending window event's exact event-queue
  /// coordinates. A read restores onto a node constructed in resume mode
  /// (start() not called; its sequence number burned by the caller), takes
  /// the window's blocks from the archive's BlockTable, and re-schedules the
  /// window event and each round's tally deadline at their original
  /// (when, seq) positions.
  template <class Ar, class Self> static void io(Ar& ar, Self& im);

 private:
  struct VerificationRound {
    std::uint64_t id{0};
    VehicleId suspect;
    std::set<VehicleId> reporters;
    int phase{1};
    Tick started_at{0};               ///< report time, for the trace span
    std::set<VehicleId> asked_ever;   ///< across both phases
    std::map<VehicleId, bool> votes;  ///< responder -> abnormal?
  };

  void process_window();
  void publish_block(std::vector<aim::TravelPlan> plans, bool count_timing);
  void prune_exited_plans(Tick now);
  /// Mixed-traffic extension: detect legacy (non-communicating) vehicles in
  /// perception range, synthesize virtual constant-speed plans for them, and
  /// reserve their conflict zones so managed traffic is scheduled around
  /// them. Returns the fresh virtual plans for inclusion in the next block.
  std::vector<aim::TravelPlan> track_unmanaged(Tick now);

  void handle_plan_request(const PlanRequest& req);
  void handle_incident_report(const IncidentReport& report, Tick now);
  void handle_verify_response(const VerifyResponse& resp);
  void handle_block_request(const BlockRequest& req, NodeId from);

  /// Starts (or joins) a verification round for a suspect. Returns false when
  /// the report was resolved immediately via direct perception.
  void start_verification(VehicleId suspect, VehicleId reporter, Tick now);
  /// Sends VerifyRequests to up to `group_size` vehicles near the suspect
  /// that have not been asked yet. Returns how many were asked.
  int ask_group(VerificationRound& round, Tick now);
  void tally_round(std::uint64_t round_id);

  void dismiss_alarm(VehicleId suspect, const std::set<VehicleId>& reporters,
                     Tick now);
  void confirm_threat(VehicleId suspect, Tick now);
  void check_evacuation_progress();
  void finish_evacuation(Tick now);

  /// Snapshot of active vehicles (plan-following assumption) for replanning.
  std::vector<aim::ActiveVehicle> active_vehicles(Tick now,
                                                  VehicleId exclude) const;

  /// Attack helper: warp one request's plan onto a colliding trajectory.
  bool try_inject_conflict(std::vector<aim::TravelPlan>& plans, Tick now);
  bool silenced(Tick now) const;

  void set_state(ImState next) { state_ = next; }

  /// Records an instant on the detection timeline (no-op unless tracing).
  void trace_instant(const char* cat, const char* name, Tick now,
                     std::int64_t arg = 0) const;
  /// Closes a verification round's trace span [started_at, now].
  void trace_round_end(const VerificationRound& round, Tick now) const;

  /// Pending event-queue coordinates for a timer this node owns. Closures
  /// cannot be serialized, so each scheduling site records (when, seq) here
  /// and a restore (io) re-creates the closure at the same coordinates.
  struct PendingEvent {
    std::uint64_t seq{0};
    Tick when{0};

    template <class Ar, class Self> static void io(Ar& ar, Self& ev) {
      ar.u64(ev.seq);
      ar.i64(ev.when);
    }
  };

  ImContext ctx_;
  aim::ReservationScheduler scheduler_;
  ImAttackProfile attack_;

  ImState state_{ImState::kStandby};
  std::vector<PlanRequest> pending_requests_;
  std::map<VehicleId, aim::TravelPlan> active_plans_;
  crypto::Digest prev_hash_{};
  chain::BlockSeq seq_{0};
  /// The IM's own blocks, newest 128 (filled unchecked: it never verifies
  /// what it signed).
  chain::BlockStore recent_blocks_{128};

  std::map<std::uint64_t, VerificationRound> rounds_;
  std::map<VehicleId, std::uint64_t> round_by_suspect_;
  std::uint64_t next_round_id_{1};
  std::map<VehicleId, int> reporter_strikes_;

  std::set<VehicleId> unmanaged_ids_;
  /// Courtesy-gap state for tracked vehicles parked at their stop line (see
  /// track_unmanaged): start of the current parking episode, the earliest
  /// time each vehicle may be granted another hold (re-arms after a recovery
  /// window), and the deadline until which new plan issuance is deferred so
  /// the junction drains.
  std::map<VehicleId, Tick> parked_since_;
  std::map<VehicleId, Tick> courtesy_retry_at_;
  Tick courtesy_until_{0};
  /// Every vehicle that ever requested a plan: a stale managed vehicle must
  /// never be reclassified as a legacy vehicle.
  std::set<VehicleId> ever_planned_;
  bool down_{false};
  VehicleId evacuation_suspect_;
  int suspect_stopped_checks_{0};
  std::set<VehicleId> confirmed_suspects_;
  bool conflict_injected_{false};
  bool sham_alert_sent_{false};

  /// The one pending window event (start() keeps exactly one armed).
  std::optional<PendingEvent> window_event_;
  /// Pending tally deadlines by round id.
  std::map<std::uint64_t, PendingEvent> pending_tallies_;

  /// Registry handles (inert no-ops when ctx_.registry is null).
  util::telemetry::Counter windows_counter_;
  util::telemetry::Counter plans_scheduled_counter_;
  util::telemetry::Gauge reservations_gauge_;

  /// Reused sensor-sweep buffer (the IM is single-threaded and the sweep
  /// sites never nest, so one buffer serves them all). Transient — never
  /// checkpointed.
  std::vector<Observation> sense_buf_;
};

}  // namespace nwade::protocol
