// Checkpoint envelope, wire forms, and the World save/restore members
// (declared in sim/world.h; defined here so world.cpp stays the simulation
// and this file stays the persistence).
#include "sim/checkpoint.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>
#include <utility>

#include "crypto/sha256.h"
#include "nwade/message_codec.h"
#include "util/crc32.h"

namespace nwade::sim {

// --- field lists ------------------------------------------------------------

template <class Ar, class Self>
void ScenarioConfig::io(Ar& ar, Self& c) {
  auto& ix = c.intersection;
  ar.enum8(ix.kind, traffic::IntersectionKind::kDdi4);
  ar.f64(ix.lane_width_m);
  ar.f64(ix.approach_length_m);
  ar.f64(ix.exit_length_m);
  ar.f64(ix.conflict_clearance_m);
  ar.f64(ix.limits.speed_limit_mps);
  ar.f64(ix.limits.max_accel_mps2);
  ar.f64(ix.limits.max_decel_mps2);

  ar.f64(c.vehicles_per_minute);
  ar.i64(c.duration_ms);
  ar.i64(c.step_ms);
  ar.u64(c.seed);

  // Slots of settings since fixed in code (nwade/config.h, aim/scheduler.h)
  // hold their constants, so every envelope keeps its bytes under v1.
  auto& n = c.nwade;
  ar.pinned(protocol::kProcessingWindowMs);
  ar.pinned(protocol::kSensingRadiusM);
  ar.f64(n.im_perception_radius_m);
  ar.pinned(protocol::kDeviationToleranceM);
  ar.pinned(protocol::kImResponseTimeoutMs);
  ar.pinned(protocol::kVerificationRoundMs);
  ar.flag(n.double_check_verification);
  ar.i64(n.global_report_threshold);
  ar.u64(n.chain_depth);
  ar.pinned(protocol::kPlanCheckMarginMs);
  ar.pinned(protocol::kPlanGraceMs);
  ar.pinned(protocol::kThreatRadiusM);
  ar.pinned(protocol::kWatchIntervalMs);
  ar.flag(n.security_enabled);
  ar.pinned(protocol::kPlanRequestBackoffMs);
  ar.pinned(protocol::kPlanRequestBackoffCapMs);
  ar.pinned(protocol::kPlanRequestMaxRetries);
  ar.pinned(protocol::kDegradedApproachSpeedMps);
  ar.pinned(protocol::kDegradedCrossSpeedMps);
  ar.pinned(protocol::kDegradedClearMarginMs);
  ar.pinned(protocol::kGapRequestLimit);

  ar.pinned(aim::kSchedulerMarginMs);
  ar.pinned(aim::kMinCruiseMps);
  ar.pinned(aim::kMaxPushIterations);
  // Reserved byte, always 0 (one of three; the network and scenario blocks
  // hold the others). Each once carried a flag selecting a brute-force
  // reference stepping path, since removed; keeping the slots keeps every
  // envelope byte-identical under the v1 schema (docs/CHECKPOINT.md §1).
  ar.reserved();

  auto& nc = c.network;
  ar.i64(nc.latency_ms);
  ar.f64(nc.comm_radius_m);
  ar.f64(nc.loss_probability);
  ar.u64(nc.seed);
  ar.reserved();
  auto& f = nc.fault;
  ar.f64(f.ge_p_good_to_bad);
  ar.f64(f.ge_p_bad_to_good);
  ar.f64(f.ge_loss_good);
  ar.f64(f.ge_loss_bad);
  ar.i64(f.jitter_ms);
  ar.f64(f.duplicate_probability);
  ar.seq(f.link_rules, 44, [](auto& a, auto& rule) {
    a.id(rule.from);
    a.id(rule.to);
    a.str(rule.kind);
    a.f64(rule.drop_probability);
    a.i64(rule.active_from);
    a.i64(rule.active_until);
  });
  ar.seq(f.outages, 24, [](auto& a, auto& o) {
    a.id(o.node);
    a.i64(o.from);
    a.i64(o.until);
  });

  ar.enum8(c.signer, SignerKind::kRsa2048);
  ar.str(c.attack.name);
  ar.i64(c.attack.malicious_vehicles);
  ar.flag(c.attack.im_malicious);
  ar.i64(c.attack.plan_violations);
  ar.i64(c.attack.false_reports);
  ar.i64(c.attack_time);
  ar.enum8(c.false_report_kind, protocol::FalseReportKind::kWrongPlans);
  ar.enum8(c.im_attack_mode, protocol::ImAttackMode::kShamAlert);
  // The security flag again, in the slot of a scenario-level twin since
  // folded into it: written from the one field, and on read this later
  // copy is the one that counts.
  ar.flag(c.nwade.security_enabled);
  ar.f64(c.legacy_fraction);
  ar.reserved();
  ar.flag(c.trace_enabled);
  // Grid-sharding hooks (appended last). Unlike step_threads these are
  // behavior knobs: the id base names every vehicle and the extra capacity
  // must be re-reserved on restore.
  ar.u64(c.vehicle_id_base);
  ar.u64(c.extra_vehicle_capacity);
  if constexpr (Ar::kReading) {
    // The step divides the watch interval and the arrival rate drives the
    // arrival generator: a run cannot start from anything else.
    if (c.step_ms <= 0 || !std::isfinite(c.vehicles_per_minute) ||
        c.vehicles_per_minute <= 0) {
      ar.fail();
    }
  }
}
template void ScenarioConfig::io(WriteArchive&, const ScenarioConfig&);
template void ScenarioConfig::io(ReadArchive&, ScenarioConfig&);

template <class Ar, class Self>
void RunSummary::io(Ar& ar, Self& s, bool wall_samples) {
  protocol::Metrics::io(ar, s.metrics, wall_samples);
  auto& n = s.net_stats;
  for (auto* count : {&n.packets_sent, &n.packets_delivered, &n.packets_dropped,
                      &n.packets_out_of_range, &n.packets_duplicated,
                      &n.packets_lost_outage, &n.bytes_sent}) {
    ar.u64(*count);
  }
  ar.counts(n.packets_by_kind);
  ar.counts(n.bytes_by_kind);
  ar.counts(n.dropped_by_kind);
  ar(s.metrics_snapshot);
  ar.f64(s.throughput_vpm);
  ar.f64(s.mean_crossing_ms);
  ar.i64(s.active_at_end);
  ar.i64(s.min_ground_truth_gap_violations);
  ar.i64(s.legacy_spawned);
  ar.i64(s.legacy_exited);
}
template void RunSummary::io(WriteArchive&, const RunSummary&, bool);
template void RunSummary::io(ReadArchive&, RunSummary&, bool);

namespace checkpoint {

void save_scenario_config(ByteWriter& w, const ScenarioConfig& c) { save(w, c); }
bool load_scenario_config(ByteReader& r, ScenarioConfig& c) { return load(r, c); }

void save_run_summary(ByteWriter& w, const RunSummary& s) { save(w, s); }
bool load_run_summary(ByteReader& r, RunSummary& s) { return load(r, s); }

std::string run_summary_digest(const RunSummary& s) {
  ByteWriter w;
  WriteArchive ar(w);
  RunSummary::io(ar, s, /*wall_samples=*/false);
  return to_hex(crypto::sha256(w.data()));
}

// --- section tables -----------------------------------------------------------

SectionWriter::SectionWriter(ByteWriter& out, std::string_view schema)
    : out_(out) {
  out_.str(schema);
  count_slot_ = out_.size();
  out_.u32(0);
}

std::size_t SectionWriter::open(std::string_view name) {
  out_.str(name);
  const std::size_t slots = out_.size();
  out_.u32(0);  // CRC-32 of the payload
  out_.u32(0);  // payload length
  return slots;
}

void SectionWriter::close(std::size_t slots) {
  const std::size_t begin = slots + 8;
  const std::span<const std::uint8_t> payload =
      std::span(out_.data()).subspan(begin);
  out_.patch_u32(slots, util::crc32(payload));
  out_.patch_u32(slots + 4, static_cast<std::uint32_t>(payload.size()));
  ++count_;
}

void SectionWriter::finish() { out_.patch_u32(count_slot_, count_); }

std::size_t save_reserve(std::size_t previous) {
  return previous + previous / 2 + 4096;
}

bool SectionReader::fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

bool SectionReader::parse(View blob, std::string_view schema,
                          std::size_t max_sections, std::string* error) {
  ByteReader r(blob);
  if (r.str() != schema) {
    return fail(error, "not an " + std::string(schema) + " checkpoint");
  }
  const std::uint32_t n_sections = r.u32();
  if (!r.ok() || n_sections > max_sections) {
    return fail(error, "malformed section table");
  }
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    std::string name = r.str();
    const std::uint32_t crc = r.u32();
    const View payload = r.view(r.u32());
    if (!r.ok()) return fail(error, "truncated section '" + name + "'");
    if (util::crc32(payload) != crc) {
      return fail(error, "CRC mismatch in section '" + name + "'");
    }
    sections_[std::move(name)] = payload;
  }
  if (!r.at_end()) return fail(error, "trailing bytes after section table");
  return true;
}

const SectionReader::View* SectionReader::find(const std::string& name) const {
  const auto it = sections_.find(name);
  return it == sections_.end() ? nullptr : &it->second;
}

// --- replay bundles ---------------------------------------------------------

Bytes save_replay_bundle(const ReplayBundle& bundle) {
  ByteWriter w;
  w.str(kReplaySchema);
  save(w, bundle);
  return w.take();
}

bool load_replay_bundle(const Bytes& blob, ReplayBundle& out,
                        std::string* error) {
  ByteReader r(blob);
  if (r.str() != kReplaySchema) {
    return SectionReader::fail(error, "not an nwade-replay-v1 bundle");
  }
  if (!load(r, out) || !r.at_end()) {
    return SectionReader::fail(
        error, "malformed bundle (bad scenario config, truncated, or trailing bytes)");
  }
  return true;
}

/// The time section: the clock, the event queue's next sequence number, and
/// the run's running tallies.
struct TimeSection {
  Tick stepped_until{0};
  std::uint64_t next_seq{0};
  int gap_violations{0};
  std::vector<Duration> crossing_times;
  std::map<VehicleId, Tick> spawn_times;

  template <class Ar, class Self> static void io(Ar& ar, Self& t) {
    ar.i64(t.stepped_until);
    ar.u64(t.next_seq);
    ar.i64(t.gap_violations);
    ar.i64s(t.crossing_times);
    ar.tick_map(t.spawn_times);
    if constexpr (Ar::kReading) {
      if (t.stepped_until < 0) ar.fail();
    }
  }
};

}  // namespace checkpoint

// --- World::checkpoint_save / checkpoint_restore ----------------------------

namespace {

constexpr const char* kSectionConfig = "config";
constexpr const char* kSectionTime = "time";
constexpr const char* kSectionMetrics = "metrics";
constexpr const char* kSectionNetwork = "network";
constexpr const char* kSectionIm = "im";
constexpr const char* kSectionVehicles = "vehicles";
constexpr const char* kSectionLegacy = "legacy";
constexpr const char* kSectionCrypto = "crypto";
constexpr const char* kSectionTelemetry = "telemetry";

/// Sections a v1 reader requires; extra sections are skipped (CRC-checked),
/// which is the forward-compatibility path described in docs/CHECKPOINT.md.
constexpr std::size_t kMaxSections = 64;

/// One managed vehicle in the vehicles section: its constructor arguments,
/// the SoA row it owns, and its node state as a length-prefixed blob, so a
/// restore can stage every record before constructing any node.
struct VehicleRecord {
  VehicleId id;
  int route_id{0};
  traffic::VehicleTraits traits;
  Tick spawn_time{0};
  protocol::VehicleAttackProfile profile;
  /// Restore re-constructs nodes in *row* order (not id order) so every node
  /// claims the row it held before the checkpoint: grid handoffs inject
  /// foreign ids whose rows interleave chronologically with local spawns.
  std::uint32_t row{0};
  /// The node's field list behind its byte length: a save encodes the live
  /// node in place, a restore keeps a view of its bytes in the envelope
  /// until the node exists.
  const protocol::VehicleNode* live{nullptr};
  std::span<const std::uint8_t> node;

  template <class Ar, class Self> static void io(Ar& ar, Self& r) {
    ar.id(r.id);
    ar.i64(r.route_id);
    ar(r.traits);
    ar.i64(r.spawn_time);
    ar(r.profile);
    ar.u32(r.row);
    ar.staged(r.live, r.node);
  }
};
constexpr std::size_t kMinVehicleRecord = 44;

template <class Ar, class M> void legacy_io(Ar& ar, M& legacy) {
  ar.map(legacy, 52, [](auto& a, auto& id, auto& l) {
    a.id(id);
    a(l);
  });
}

}  // namespace

Bytes World::checkpoint_save() const {
  ByteWriter out;
  out.reserve(checkpoint::save_reserve(last_save_bytes_));
  checkpoint_save(out);
  last_save_bytes_ = out.size();
  return out.take();
}

void World::checkpoint_save(ByteWriter& envelope) const {
  // Checkpoints are only valid at step boundaries: between run_until calls
  // the clock sits exactly at the last completed step and every pending
  // event belongs to a serializable owner (network delivery, IM timer).
  assert(clock_.now() == stepped_until_);

  checkpoint::SectionWriter out(envelope, checkpoint::kCheckpointSchema);
  out.add(kSectionConfig, [&](WriteArchive& ar) { ar(config_); });
  const checkpoint::TimeSection time{stepped_until_, queue_.next_seq(),
                                     gap_violations_, crossing_times_,
                                     spawn_times_};
  out.add(kSectionTime, [&](WriteArchive& ar) { ar(time); });
  out.add(kSectionMetrics, [&](WriteArchive& ar) { ar(metrics_); });
  out.add(kSectionNetwork, [&](WriteArchive& ar) {
    net::Network::io(ar, std::as_const(*network_), protocol::kMessageCodec);
  });
  out.add(kSectionIm, [&](WriteArchive& ar) { ar(std::as_const(*im_)); });
  out.add(kSectionVehicles, [&](WriteArchive& ar) {
    ar.seq(vehicles_, kMinVehicleRecord, [](WriteArchive& a, const auto& entry) {
      const protocol::VehicleNode& v = *entry.second;
      const VehicleRecord rec{entry.first,       v.route_id(),
                              v.traits(),        v.spawn_time(),
                              v.attack_profile(),
                              static_cast<std::uint32_t>(v.kin_row()),
                              &v,                {}};
      a(rec);
    });
  });
  out.add(kSectionLegacy, [&](WriteArchive& ar) { legacy_io(ar, legacy_); });
  out.add(kSectionCrypto, [&](WriteArchive& ar) { ar(verify_cache_); });
  const util::telemetry::MetricsSnapshot telemetry = registry_.snapshot();
  out.add(kSectionTelemetry, [&](WriteArchive& ar) { ar(telemetry); });
  out.finish();
}

std::unique_ptr<World> World::checkpoint_restore(
    std::span<const std::uint8_t> blob, std::string* error) {
  checkpoint::SectionReader in;
  if (!in.parse(blob, checkpoint::kCheckpointSchema, kMaxSections, error)) {
    return nullptr;
  }
  ScenarioConfig config;
  checkpoint::TimeSection time;
  if (!in.read(kSectionConfig, error, [&](ReadArchive& ar) { ar(config); }) ||
      !in.read(kSectionTime, error, [&](ReadArchive& ar) { ar(time); })) {
    return nullptr;
  }
  auto world = std::unique_ptr<World>(
      new World(std::move(config), time.stepped_until));
  if (!world->apply_checkpoint(in, time, error)) return nullptr;
  world->last_save_bytes_ = blob.size();
  return world;
}

bool World::apply_checkpoint(const checkpoint::SectionReader& in,
                             checkpoint::TimeSection& time,
                             std::string* error) {
  stepped_until_ = time.stepped_until;
  gap_violations_ = time.gap_violations;
  crossing_times_ = std::move(time.crossing_times);
  spawn_times_ = std::move(time.spawn_times);
  clock_.advance_to(stepped_until_);

  // One Block per distinct block across the network, the IM window and
  // every vehicle store, as in a running world.
  chain::BlockTable blocks;
  std::vector<VehicleRecord> records;
  util::telemetry::MetricsSnapshot telemetry;
  const bool ok =
      in.read(kSectionMetrics, error, [&](ReadArchive& ar) { ar(metrics_); }) &&
      in.read(kSectionNetwork, error,
              [&](ReadArchive& ar) {
                net::Network::io(ar, *network_, protocol::kMessageCodec);
              },
              &blocks) &&
      in.read(kSectionIm, error, [&](ReadArchive& ar) { ar(*im_); }, &blocks) &&
      in.read(kSectionVehicles, error,
              [&](ReadArchive& ar) {
                ar.seq(records, kMinVehicleRecord,
                       [](ReadArchive& a, VehicleRecord& r) { a(r); });
              }) &&
      in.read(kSectionLegacy, error,
              [&](ReadArchive& ar) { legacy_io(ar, legacy_); }) &&
      in.read(kSectionCrypto, error,
              [&](ReadArchive& ar) { ar(verify_cache_); }) &&
      in.read(kSectionTelemetry, error,
              [&](ReadArchive& ar) { ar(telemetry); });
  if (!ok) return false;

  // Construct in *row* order: rows encode the original spawn/injection
  // chronology, which grid handoffs decouple from id order. Constructing
  // row-by-row reproduces both the SoA row assignment and the network's
  // add_node order.
  std::sort(records.begin(), records.end(),
            [](const VehicleRecord& a, const VehicleRecord& b) {
              return a.row != b.row ? a.row < b.row : a.id.value < b.id.value;
            });
  for (const VehicleRecord& rec : records) {
    // Attackers injected by a grid handoff are not re-created by
    // assign_attack_roles on resume — re-register their roles so sensing
    // and metrics labelling keep treating them as malicious.
    if (rec.profile.role != protocol::VehicleRole::kBenign) {
      malicious_ids_.insert(rec.id);
      attack_roles_[rec.id] = rec.profile;
    }
    auto node = std::make_unique<protocol::VehicleNode>(
        vehicle_context(), rec.id, rec.route_id, rec.traits, rec.spawn_time,
        rec.profile);
    ByteReader nr(rec.node);
    if (!load(nr, *node, &blocks) || !nr.at_end()) {
      return checkpoint::SectionReader::fail(error, "malformed vehicles section");
    }
    // Exited vehicles were removed from the network when they left; their
    // chain stores still matter (trace digests fold every vehicle). A
    // restored vehicle never start()s — its spawn is history.
    if (!node->exited()) network_->add_node(node.get());
    row_nodes_.push_back(node.get());
    vehicles_[rec.id] = std::move(node);
  }
  // Telemetry last: reconstruction above re-touches gauges and counters
  // (add_node, kind-handle recreation); the snapshot overwrite is the final
  // word so restored values exactly match the saved run's registry.
  registry_.restore(telemetry);
  // The allocation counter moves last of all: every schedule_at_seq above
  // left it untouched, and construction-time burning advanced it exactly as
  // the original construction did, so this lands it on the saved value.
  queue_.set_next_seq(time.next_seq);
  ++position_epoch_;
  return true;
}

}  // namespace nwade::sim
