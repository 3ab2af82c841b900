// The simulation world: wires the traffic substrate, network, intersection
// manager, and vehicles into one deterministic discrete-event run. This is
// the "3D intelligent intersection traffic simulator" substitute the
// experiments run on (2-D kinematics; the evaluation never depends on
// rendering).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/signer.h"
#include "crypto/verify_cache.h"
#include "geom/spatial_hash.h"
#include "net/network.h"
#include "nwade/config.h"
#include "nwade/im_node.h"
#include "nwade/metrics.h"
#include "nwade/sensor.h"
#include "nwade/vehicle_node.h"
#include "traffic/arrivals.h"
#include "traffic/types.h"
#include "util/telemetry.h"
#include "util/trace.h"
#include "util/worker_pool.h"

namespace nwade::sim {

/// Which signature scheme the IM uses. HMAC keeps protocol-logic runs fast;
/// RSA matches the paper's crypto cost (Fig. 6 uses 2048).
enum class SignerKind { kHmac = 0, kRsa1024, kRsa2048 };

struct ScenarioConfig {
  traffic::IntersectionConfig intersection;
  double vehicles_per_minute{80};
  Duration duration_ms{120'000};
  Duration step_ms{100};
  std::uint64_t seed{1};

  /// `nwade.security_enabled` = false is plain AIM without the NWADE
  /// security layer (Fig. 8's baseline).
  protocol::NwadeConfig nwade;
  aim::SchedulerConfig scheduler;
  net::NetworkConfig network;
  SignerKind signer{SignerKind::kHmac};

  /// Table I attack setting ("benign" = no attack).
  protocol::AttackSetting attack{"benign", 0, false, 0, 0};
  /// When the attack behaviours trigger.
  Tick attack_time{40'000};
  /// Which lie false reporters tell (Table II type A vs B).
  protocol::FalseReportKind false_report_kind{protocol::FalseReportKind::kIncident};
  /// Malicious-IM behaviour for im_malicious settings.
  protocol::ImAttackMode im_attack_mode{
      protocol::ImAttackMode::kConflictingPlansAndSilence};

  /// Mixed-traffic extension (the paper's future work): fraction of arrivals
  /// that are legacy vehicles — no V2X, no plan requests; they cross at a
  /// constant cruise speed with simple car-following. The IM perceives them
  /// and schedules managed traffic around virtual trajectory predictions.
  double legacy_fraction{0.0};

  /// true = the World's event tracer records the sim-time span/instant
  /// timeline (docs/OBSERVABILITY.md) retrievable via take_trace(). Tracing
  /// only observes — it never draws randomness or changes decisions — so
  /// trace_golden digests are byte-identical either way.
  bool trace_enabled{false};

  /// Worker threads for the intra-world phase kernels (chunked physics /
  /// watch scans / gap audit). <= 1 runs everything inline on the calling
  /// thread. Chunk boundaries and every merge are fixed, so results are
  /// byte-identical for ANY value — this is a wall-clock knob, never a
  /// behaviour knob. Deliberately not part of the checkpoint envelope: a
  /// resumed world may pick a different thread count and still continue
  /// bit-exactly.
  int step_threads{1};

  // --- grid-sharding hooks (sim::Grid) ---------------------------------------
  /// Ids this world hands out start at vehicle_id_base + 1; a grid assigns
  /// each shard a disjoint base so ids (and therefore NodeIds) stay globally
  /// unique across shards. 0 keeps the classic 1..N single-world numbering
  /// bit-identical. Part of the checkpoint envelope.
  std::uint64_t vehicle_id_base{0};
  /// Extra SoA rows reserved beyond this world's own arrivals, for vehicles
  /// injected mid-run (grid boundary handoffs). Serialized so a restored
  /// world re-reserves identically and node-held row references never
  /// dangle (traffic::VehicleColumns::add_row asserts on spare capacity).
  std::uint64_t extra_vehicle_capacity{0};

  /// Field list of every knob above but step_threads (the registry/tracer
  /// injection pointers inside are reconstructed, not stored). A read
  /// rejects values no run can start from: step_ms <= 0, and a
  /// vehicles_per_minute that is not finite and > 0 (sim/checkpoint.cpp).
  template <class Ar, class Self> static void io(Ar& ar, Self& c);
};

/// Aggregated outcome of one run.
struct RunSummary {
  protocol::Metrics metrics;
  net::NetworkStats net_stats;
  /// Unified registry snapshot: net.* / aim.* counters plus the protocol and
  /// SigVerifyCache silos folded in as gauges. Integer-valued only, so two
  /// identical seeded runs produce byte-identical snapshot JSON.
  util::telemetry::MetricsSnapshot metrics_snapshot;
  double throughput_vpm{0};      ///< vehicles exited per simulated minute
  double mean_crossing_ms{0};    ///< spawn-to-exit time of exited vehicles
  int active_at_end{0};
  int min_ground_truth_gap_violations{0};  ///< pairs observed closer than 1.5 m
  int legacy_spawned{0};
  int legacy_exited{0};

  /// Field list (campaign progress records, run_summary_digest): maps are
  /// written key-sorted and floats as IEEE-754 bit patterns, so equal
  /// summaries give equal bytes. `wall_samples` as in Metrics::io.
  template <class Ar, class Self>
  static void io(Ar& ar, Self& s, bool wall_samples = true);
};

namespace checkpoint {
class SectionReader;
struct TimeSection;
}  // namespace checkpoint

/// One deterministic simulation run.
class World final : public protocol::SensorProvider {
 public:
  explicit World(ScenarioConfig config);
  ~World() override;

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs to completion and returns the summary.
  RunSummary run();

  /// Advances simulated time to `t` (stepwise driving for tests).
  void run_until(Tick t);

  RunSummary summary() const;

  // --- checkpoint/restore (sim/checkpoint.h, docs/CHECKPOINT.md) ------------
  /// Serializes the complete world into an `nwade-ckpt-v1` envelope. Must be
  /// called at a step boundary — i.e. between run_until calls, never from
  /// inside an event — so the event queue holds only the re-creatable timer
  /// and delivery events. The known exception: the tracer's recorded event
  /// buffer is NOT included (traces are an observability export, not sim
  /// state; tracing never influences decisions).
  Bytes checkpoint_save() const;
  /// Reconstructs a world from a checkpoint and positions it exactly where
  /// the saved run stood: continuing with run_until/run is byte-identical to
  /// the uninterrupted run. Returns nullptr on malformed or corrupt input
  /// (with a diagnostic in *error when provided).
  static std::unique_ptr<World> checkpoint_restore(const Bytes& blob,
                                                   std::string* error = nullptr);

  // --- SensorProvider -------------------------------------------------------
  std::vector<protocol::Observation> sense_around(geom::Vec2 center, double radius,
                                                  VehicleId exclude) const override;
  /// Allocation-free variant: fills `out` (cleared first). Thread-safe for
  /// concurrent callers once the grids are built for the current position
  /// epoch (step_watch pre-builds them before fanning scans out).
  void sense_around_into(geom::Vec2 center, double radius, VehicleId exclude,
                         std::vector<protocol::Observation>& out) const override;
  std::optional<protocol::Observation> observe(VehicleId id) const override;

  /// Heap allocations the chunked kernels of the most recent step performed
  /// (process-wide, so pool threads are covered) — measured only in
  /// NWADE_COUNT_ALLOCS builds (always zero otherwise). `physics` meters the
  /// pure-run kinematics fan-outs; `watch` meters the sensor-scan fan-out.
  /// The serial merges and emits around them (crossing-time appends,
  /// incident reports, block requests) allocate by design and are excluded.
  /// The alloc-gate test asserts the warmed kernels never allocate.
  struct StepAllocCounts {
    std::uint64_t physics{0};
    std::uint64_t watch{0};
  };
  StepAllocCounts last_step_allocs() const { return last_step_allocs_; }

  // --- grid-sharding hooks (sim::Grid) ----------------------------------------
  /// A vehicle that left this intersection, captured at its exit commit
  /// point with everything a neighboring shard needs to continue it: route
  /// (for the exit leg), carried speed, identity/traits, and the attack
  /// profile (ground truth travels with the vehicle).
  struct ExitRecord {
    VehicleId id;
    int route_id{0};
    Tick exit_time{0};
    double speed_mps{0};
    traffic::VehicleTraits traits;
    protocol::VehicleAttackProfile attack;
    bool legacy{false};
  };
  /// Turns on exit capture (off by default so standalone worlds never grow
  /// an undrained log). The grid enables it right after construction — and
  /// again after a checkpoint restore; the flag is deliberately not part of
  /// the envelope because the grid drains the log before every save.
  void enable_exit_log() { exit_log_enabled_ = true; }
  /// Drains the exits recorded since the last call, in exit order.
  std::vector<ExitRecord> take_exits() { return std::exchange(exit_log_, {}); }
  /// Boundary handoff: spawns a managed vehicle mid-run with an explicit
  /// (globally unique, never seen here) id, a continuation route, and its
  /// carried entry speed (clamped to this intersection's limit). Call at a
  /// step boundary — between run_until calls. A non-benign attack profile
  /// re-registers the vehicle in malicious_ids().
  void inject_vehicle(VehicleId id, int route_id,
                      const traffic::VehicleTraits& traits, double speed_mps,
                      const protocol::VehicleAttackProfile& attack = {});
  /// Legacy flavor of inject_vehicle: no V2X, constant-cruise car following.
  void inject_legacy(VehicleId id, int route_id,
                     const traffic::VehicleTraits& traits, double speed_mps);
  /// Cross-IM gossip import (forwards to ImNode::import_blacklist at the
  /// current sim time). Returns true when the suspect was newly imported.
  bool import_blacklist(VehicleId suspect);
  /// How many arrivals (managed + legacy) this scenario generates — re-runs
  /// the construction-time Poisson draw deterministically without building a
  /// world. Grids use it to size extra_vehicle_capacity and to keep
  /// vehicle_id_base strides collision-free.
  static std::size_t arrival_count(const ScenarioConfig& config);

  // --- introspection ----------------------------------------------------------
  Tick now() const { return clock_.now(); }
  /// The scenario this world runs. For a restored world this is the
  /// checkpoint's config — the authority on duration/seed/faults — not
  /// whatever the restoring process was configured with.
  const ScenarioConfig& config() const { return config_; }
  const protocol::ImNode& im() const { return *im_; }
  const protocol::Metrics& metrics() const { return metrics_; }
  /// The run-scoped metrics registry every layer reports into.
  util::telemetry::Registry& registry() { return registry_; }
  /// The run-scoped event tracer (enabled iff ScenarioConfig::trace_enabled).
  util::trace::Tracer& tracer() { return tracer_; }
  /// Moves the recorded trace events out (campaigns collect per-cell traces).
  std::vector<util::trace::Event> take_trace() { return tracer_.take(); }
  /// Observational hook, called after every completed step with the new
  /// simulated time. Steps land on the fixed step_ms lattice regardless of
  /// how callers slice run_until, so the call schedule — and anything a
  /// listener derives from world state — is independent of slicing and
  /// thread counts. The listener runs on the stepping thread and is not
  /// checkpointed; never attach one to a shard inside a Grid (shards step on
  /// pool threads — subscribe at the Grid instead).
  void set_step_listener(std::function<void(Tick)> fn) {
    step_listener_ = std::move(fn);
  }
  const net::Network& network() const { return *network_; }
  const traffic::Intersection& intersection() const { return intersection_; }
  protocol::VehicleNode* vehicle(VehicleId id);
  std::vector<VehicleId> vehicle_ids() const;
  /// Ids assigned attacker roles for this scenario.
  const std::set<VehicleId>& malicious_ids() const { return malicious_ids_; }

 private:
  /// Resume-mode constructor (checkpoint_restore). `resume_t` >= 0 replays
  /// construction-time event scheduling in burn mode: events that had already
  /// fired by the checkpoint (`when <= resume_t`) consume their original
  /// sequence number without being scheduled, so later allocations — and
  /// therefore same-tick ordering — line up exactly with the original run.
  World(ScenarioConfig config, Tick resume_t);

  /// Applies the checkpoint sections onto a resume-mode-constructed world
  /// (`time` is the already-parsed time section). Telemetry is applied last
  /// (construction re-touches gauges), the queue's sequence counter last of
  /// all.
  bool apply_checkpoint(const checkpoint::SectionReader& in,
                        checkpoint::TimeSection& time, std::string* error);

  /// A legacy (non-communicating) vehicle: pure physics, no protocol.
  struct LegacyVehicle {
    int route_id{0};
    traffic::VehicleTraits traits;
    double s{0};
    double v{0};
    double cruise{0};
    bool exited{false};

    template <class Ar, class Self> static void io(Ar& ar, Self& l) {
      ar.i64(l.route_id);
      ar(l.traits);
      ar.f64(l.s);
      ar.f64(l.v);
      ar.f64(l.cruise);
      ar.flag(l.exited);
    }
  };

  void assign_attack_roles(std::vector<traffic::Arrival>& arrivals);
  /// Appends to exit_log_ (no-op unless enable_exit_log()); called at every
  /// managed exit commit point with the just-exited node.
  void record_exit(const protocol::VehicleNode& v, Tick now);
  /// The wiring every managed vehicle gets, at spawn and on restore.
  protocol::VehicleContext vehicle_context();
  void spawn(const traffic::Arrival& arrival, VehicleId id);
  void spawn_legacy(const traffic::Arrival& arrival, VehicleId id);
  void step_legacy(Duration dt_ms);
  geom::Vec2 legacy_position(const LegacyVehicle& l) const;
  void step_world(Tick now);
  void rebuild_sense_grids() const;

  // Chunked phase kernels (byte-identical to serial per-vehicle loops in id
  // order at any step_threads; each kernel states its equivalence argument).
  void step_physics(Tick now, Duration dt);
  void step_watch(Tick now, Tick step_index, Tick watch_every);
  std::size_t step_gap_audit(Tick now);

  ScenarioConfig config_;
  traffic::Intersection intersection_;
  net::SimClock clock_;
  net::EventQueue queue_;
  /// Run-scoped telemetry. Declared before network_ / im_ / vehicles_, which
  /// hold handles into them, so destruction order stays safe. mutable:
  /// summary() is const but folds the protocol/crypto silos into gauges.
  mutable util::telemetry::Registry registry_;
  util::trace::Tracer tracer_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<crypto::Signer> signer_;
  protocol::Metrics metrics_;
  std::set<VehicleId> malicious_ids_;
  std::map<VehicleId, protocol::VehicleAttackProfile> attack_roles_;
  /// SoA home for every managed vehicle's kinematic hot state; row r belongs
  /// to the r-th spawned vehicle (rows append in ascending id order, exited
  /// rows stay with active == 0). Reserved up front for every arrival so the
  /// node-held references never dangle.
  traffic::VehicleColumns columns_;
  std::unique_ptr<protocol::ImNode> im_;
  std::map<VehicleId, std::unique_ptr<protocol::VehicleNode>> vehicles_;
  std::map<VehicleId, LegacyVehicle> legacy_;
  std::map<VehicleId, Tick> spawn_times_;
  std::vector<Duration> crossing_times_;
  /// Exit capture for grid handoffs (see ExitRecord): appended at every exit
  /// commit point when enabled, drained by take_exits(). Not checkpointed —
  /// the grid drains it at every exchange boundary, so it is empty whenever
  /// a grid checkpoint is taken.
  std::vector<ExitRecord> exit_log_;
  bool exit_log_enabled_{false};
  int gap_violations_{0};
  Tick stepped_until_{0};
  util::telemetry::Counter steps_counter_;
  std::function<void(Tick)> step_listener_;

  /// The run's one signature-verification memo. Vehicles verify inside
  /// event delivery, on the thread stepping this world, so concurrent worlds
  /// (grid shards, campaign cells) never share or lock one.
  crypto::SigVerifyCache verify_cache_;

  /// Worker pool behind the chunked phase kernels; 0 workers
  /// (step_threads <= 1) runs everything inline.
  util::WorkerPool step_pool_;
  /// One verifier shared by every vehicle, memoizing into verify_cache_.
  std::shared_ptr<const crypto::Verifier> im_verifier_;

  // Reused phase scratch (chunked kernels): cleared and refilled every step
  // so the warmed steady state never touches the heap.
  std::vector<protocol::VehicleNode*> step_nodes_;
  std::vector<std::uint8_t> step_impure_;
  std::vector<std::uint8_t> step_exited_;
  std::vector<protocol::VehicleNode*> watch_due_;
  struct AuditProbe {
    geom::Vec2 pos;
    double s{0};
    int route{-1};
    bool parked_off_lane{false};
  };
  std::vector<AuditProbe> audit_probes_;
  geom::SpatialHash audit_grid_{2.0};  ///< capacity-retaining, cleared per audit
  std::vector<int> audit_partials_;
  StepAllocCounts last_step_allocs_;

  /// Bumped whenever positions may have changed (step_world entry, spawns);
  /// the lazily rebuilt sensor grids below are keyed on it.
  std::uint64_t position_epoch_{0};

  // Sensor-query index: snapshots of managed/legacy positions, rebuilt at
  // most once per position epoch. A snapshot can lag a vehicle by one
  // physics step (senses fire mid-step), so queries pad the radius by
  // kSenseSlackM and re-apply the exact live-position predicate.
  mutable geom::SpatialHash sense_managed_grid_{64.0};
  mutable std::vector<VehicleId> sense_managed_ids_;
  mutable geom::SpatialHash sense_legacy_grid_{64.0};
  mutable std::vector<VehicleId> sense_legacy_ids_;
  mutable std::uint64_t sense_built_epoch_{~0ULL};

  // Car-following lookup index: managed positions snapshotted at the top of
  // each step_legacy call (managed vehicles do not move during it).
  geom::SpatialHash follow_grid_{32.0};
  std::vector<const protocol::VehicleNode*> follow_nodes_;
  std::vector<std::size_t> follow_scratch_;
  // Legacy-vs-legacy lookup: positions snapshotted at the top of step_legacy
  // (they drift up to one step during it; the query radius absorbs that and
  // the predicate reads the live fields through the stored pointers).
  geom::SpatialHash legacy_follow_grid_{32.0};
  std::vector<std::pair<VehicleId, const LegacyVehicle*>> legacy_follow_refs_;
};

}  // namespace nwade::sim
