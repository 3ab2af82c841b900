// Checkpoint envelope, wire forms, and the World save/restore members
// (declared in sim/world.h; defined here so world.cpp stays the simulation
// and this file stays the persistence).
#include "sim/checkpoint.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "crypto/sha256.h"
#include "nwade/message_codec.h"
#include "util/crc32.h"

namespace nwade::sim {
namespace checkpoint {

// --- ScenarioConfig ---------------------------------------------------------

void save_scenario_config(ByteWriter& w, const ScenarioConfig& c) {
  w.u8(static_cast<std::uint8_t>(c.intersection.kind));
  w.f64(c.intersection.lane_width_m);
  w.f64(c.intersection.approach_length_m);
  w.f64(c.intersection.exit_length_m);
  w.f64(c.intersection.conflict_clearance_m);
  w.f64(c.intersection.limits.speed_limit_mps);
  w.f64(c.intersection.limits.max_accel_mps2);
  w.f64(c.intersection.limits.max_decel_mps2);

  w.f64(c.vehicles_per_minute);
  w.i64(c.duration_ms);
  w.i64(c.step_ms);
  w.u64(c.seed);

  const protocol::NwadeConfig& n = c.nwade;
  w.i64(n.processing_window_ms);
  w.f64(n.sensing_radius_m);
  w.f64(n.im_perception_radius_m);
  w.f64(n.deviation_tolerance_m);
  w.i64(n.im_response_timeout_ms);
  w.i64(n.verification_round_ms);
  w.u8(n.double_check_verification ? 1 : 0);
  w.i64(n.global_report_threshold);
  w.u64(n.chain_depth);
  w.i64(n.plan_check_margin_ms);
  w.i64(n.plan_grace_ms);
  w.f64(n.threat_radius_m);
  w.i64(n.watch_interval_ms);
  w.u8(n.security_enabled ? 1 : 0);
  w.i64(n.plan_request_backoff_ms);
  w.i64(n.plan_request_backoff_cap_ms);
  w.i64(n.plan_request_max_retries);
  w.f64(n.degraded_approach_speed_mps);
  w.f64(n.degraded_cross_speed_mps);
  w.i64(n.degraded_clear_margin_ms);
  w.i64(n.gap_request_limit);

  w.i64(c.scheduler.margin_ms);
  w.f64(c.scheduler.min_cruise_mps);
  w.i64(c.scheduler.max_push_iterations);
  // Reserved byte, always 0 (one of three; the network and scenario blocks
  // hold the others). Each once carried a flag selecting a brute-force
  // reference stepping path, since removed; keeping the slots keeps every
  // envelope byte-identical under the v1 schema. Loads skip them
  // (docs/CHECKPOINT.md §1).
  w.u8(0);

  const net::NetworkConfig& nc = c.network;
  w.i64(nc.latency_ms);
  w.f64(nc.comm_radius_m);
  w.f64(nc.loss_probability);
  w.u64(nc.seed);
  w.u8(0);  // reserved (see the scheduler block above)
  const net::FaultProfile& f = nc.fault;
  w.f64(f.ge_p_good_to_bad);
  w.f64(f.ge_p_bad_to_good);
  w.f64(f.ge_loss_good);
  w.f64(f.ge_loss_bad);
  w.i64(f.jitter_ms);
  w.f64(f.duplicate_probability);
  w.u32(static_cast<std::uint32_t>(f.link_rules.size()));
  for (const net::LinkRule& rule : f.link_rules) {
    w.u64(rule.from.value);
    w.u64(rule.to.value);
    w.str(rule.kind);
    w.f64(rule.drop_probability);
    w.i64(rule.active_from);
    w.i64(rule.active_until);
  }
  w.u32(static_cast<std::uint32_t>(f.outages.size()));
  for (const net::Outage& o : f.outages) {
    w.u64(o.node.value);
    w.i64(o.from);
    w.i64(o.until);
  }

  w.u8(static_cast<std::uint8_t>(c.signer));
  w.str(c.attack.name);
  w.i64(c.attack.malicious_vehicles);
  w.u8(c.attack.im_malicious ? 1 : 0);
  w.i64(c.attack.plan_violations);
  w.i64(c.attack.false_reports);
  w.i64(c.attack_time);
  w.u8(static_cast<std::uint8_t>(c.false_report_kind));
  w.u8(static_cast<std::uint8_t>(c.im_attack_mode));
  w.u8(c.nwade_enabled ? 1 : 0);
  w.f64(c.legacy_fraction);
  w.u8(0);  // reserved (see the scheduler block above)
  w.u8(c.trace_enabled ? 1 : 0);
  // Grid-sharding hooks (appended last; see the matching loads). Unlike
  // step_threads these are behavior knobs: the id base names every vehicle
  // and the extra capacity must be re-reserved on restore.
  w.u64(c.vehicle_id_base);
  w.u64(c.extra_vehicle_capacity);
}

bool load_scenario_config(ByteReader& r, ScenarioConfig& c) {
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > static_cast<std::uint8_t>(traffic::IntersectionKind::kDdi4)) {
    return false;
  }
  c.intersection.kind = static_cast<traffic::IntersectionKind>(kind);
  c.intersection.lane_width_m = r.f64();
  c.intersection.approach_length_m = r.f64();
  c.intersection.exit_length_m = r.f64();
  c.intersection.conflict_clearance_m = r.f64();
  c.intersection.limits.speed_limit_mps = r.f64();
  c.intersection.limits.max_accel_mps2 = r.f64();
  c.intersection.limits.max_decel_mps2 = r.f64();

  c.vehicles_per_minute = r.f64();
  c.duration_ms = r.i64();
  c.step_ms = r.i64();
  c.seed = r.u64();

  protocol::NwadeConfig& n = c.nwade;
  n.processing_window_ms = r.i64();
  n.sensing_radius_m = r.f64();
  n.im_perception_radius_m = r.f64();
  n.deviation_tolerance_m = r.f64();
  n.im_response_timeout_ms = r.i64();
  n.verification_round_ms = r.i64();
  n.double_check_verification = r.u8() != 0;
  n.global_report_threshold = static_cast<int>(r.i64());
  n.chain_depth = static_cast<std::size_t>(r.u64());
  n.plan_check_margin_ms = r.i64();
  n.plan_grace_ms = r.i64();
  n.threat_radius_m = r.f64();
  n.watch_interval_ms = r.i64();
  n.security_enabled = r.u8() != 0;
  n.plan_request_backoff_ms = r.i64();
  n.plan_request_backoff_cap_ms = r.i64();
  n.plan_request_max_retries = static_cast<int>(r.i64());
  n.degraded_approach_speed_mps = r.f64();
  n.degraded_cross_speed_mps = r.f64();
  n.degraded_clear_margin_ms = r.i64();
  n.gap_request_limit = static_cast<int>(r.i64());

  c.scheduler.margin_ms = r.i64();
  c.scheduler.min_cruise_mps = r.f64();
  c.scheduler.max_push_iterations = static_cast<int>(r.i64());
  r.skip(1);  // reserved

  net::NetworkConfig& nc = c.network;
  nc.latency_ms = r.i64();
  nc.comm_radius_m = r.f64();
  nc.loss_probability = r.f64();
  nc.seed = r.u64();
  r.skip(1);  // reserved
  net::FaultProfile& f = nc.fault;
  f.ge_p_good_to_bad = r.f64();
  f.ge_p_bad_to_good = r.f64();
  f.ge_loss_good = r.f64();
  f.ge_loss_bad = r.f64();
  f.jitter_ms = r.i64();
  f.duplicate_probability = r.f64();
  f.link_rules.clear();
  const std::uint32_t n_rules = r.u32();
  if (!r.ok() || n_rules > r.remaining() / 44) return false;
  for (std::uint32_t i = 0; i < n_rules; ++i) {
    net::LinkRule rule;
    rule.from = NodeId{r.u64()};
    rule.to = NodeId{r.u64()};
    rule.kind = r.str();
    rule.drop_probability = r.f64();
    rule.active_from = r.i64();
    rule.active_until = r.i64();
    f.link_rules.push_back(std::move(rule));
  }
  f.outages.clear();
  const std::uint32_t n_outages = r.u32();
  if (!r.ok() || n_outages > r.remaining() / 24) return false;
  for (std::uint32_t i = 0; i < n_outages; ++i) {
    net::Outage o;
    o.node = NodeId{r.u64()};
    o.from = r.i64();
    o.until = r.i64();
    f.outages.push_back(o);
  }

  const std::uint8_t signer = r.u8();
  if (!r.ok() || signer > static_cast<std::uint8_t>(SignerKind::kRsa2048)) {
    return false;
  }
  c.signer = static_cast<SignerKind>(signer);
  c.attack.name = r.str();
  c.attack.malicious_vehicles = static_cast<int>(r.i64());
  c.attack.im_malicious = r.u8() != 0;
  c.attack.plan_violations = static_cast<int>(r.i64());
  c.attack.false_reports = static_cast<int>(r.i64());
  c.attack_time = r.i64();
  const std::uint8_t false_kind = r.u8();
  if (!r.ok() || false_kind > 1) return false;
  c.false_report_kind = static_cast<protocol::FalseReportKind>(false_kind);
  const std::uint8_t im_mode = r.u8();
  if (!r.ok() ||
      im_mode > static_cast<std::uint8_t>(protocol::ImAttackMode::kShamAlert)) {
    return false;
  }
  c.im_attack_mode = static_cast<protocol::ImAttackMode>(im_mode);
  c.nwade_enabled = r.u8() != 0;
  c.legacy_fraction = r.f64();
  r.skip(1);  // reserved
  c.trace_enabled = r.u8() != 0;
  c.vehicle_id_base = r.u64();
  c.extra_vehicle_capacity = r.u64();
  return r.ok();
}

// --- Metrics ----------------------------------------------------------------

namespace {

void save_opt_tick(ByteWriter& w, const std::optional<Tick>& t) {
  w.u8(t.has_value() ? 1 : 0);
  w.i64(t.value_or(0));
}

std::optional<Tick> load_opt_tick(ByteReader& r) {
  const bool has = r.u8() != 0;
  const Tick t = r.i64();
  return has ? std::optional<Tick>(t) : std::nullopt;
}

void save_wall_samples(ByteWriter& w, const std::vector<double>& xs) {
  w.u32(static_cast<std::uint32_t>(xs.size()));
  for (const double x : xs) w.f64(x);
}

bool load_wall_samples(ByteReader& r, std::vector<double>& out) {
  out.clear();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 8) return false;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.f64());
  return r.ok();
}

}  // namespace

void save_metrics(ByteWriter& w, const protocol::Metrics& m,
                  bool include_wall_samples) {
  save_opt_tick(w, m.violation_start);
  save_opt_tick(w, m.first_true_incident);
  save_opt_tick(w, m.deviation_confirmed);
  save_opt_tick(w, m.false_incident_injected);
  save_opt_tick(w, m.false_incident_dismissed);
  save_opt_tick(w, m.false_global_injected);
  save_opt_tick(w, m.false_global_detected);
  save_opt_tick(w, m.im_conflict_injected);
  save_opt_tick(w, m.im_conflict_detected);
  save_opt_tick(w, m.sham_alert_detected);
  w.i64(m.vehicles_spawned);
  w.i64(m.vehicles_exited);
  w.i64(m.incident_reports);
  w.i64(m.global_reports);
  w.i64(m.verify_rounds);
  w.i64(m.alarm_dismissals);
  w.i64(m.evacuation_alerts);
  w.i64(m.benign_self_evacuations);
  w.i64(m.false_alarm_evacuations);
  w.i64(m.malicious_reports_recorded);
  w.i64(m.blocks_published);
  w.i64(m.block_verification_failures);
  w.i64(m.plan_request_retries);
  w.i64(m.gap_block_requests);
  w.i64(m.degraded_entries);
  w.i64(m.degraded_crossings);
  w.i64(m.im_crashes);
  w.i64(m.im_restarts);
  w.i64(m.im_courtesy_gaps);
  w.u8(include_wall_samples ? 1 : 0);
  if (include_wall_samples) {
    save_wall_samples(w, m.im_package_us);
    save_wall_samples(w, m.vehicle_verify_us);
  }
}

bool load_metrics(ByteReader& r, protocol::Metrics& m) {
  m.violation_start = load_opt_tick(r);
  m.first_true_incident = load_opt_tick(r);
  m.deviation_confirmed = load_opt_tick(r);
  m.false_incident_injected = load_opt_tick(r);
  m.false_incident_dismissed = load_opt_tick(r);
  m.false_global_injected = load_opt_tick(r);
  m.false_global_detected = load_opt_tick(r);
  m.im_conflict_injected = load_opt_tick(r);
  m.im_conflict_detected = load_opt_tick(r);
  m.sham_alert_detected = load_opt_tick(r);
  m.vehicles_spawned = static_cast<int>(r.i64());
  m.vehicles_exited = static_cast<int>(r.i64());
  m.incident_reports = static_cast<int>(r.i64());
  m.global_reports = static_cast<int>(r.i64());
  m.verify_rounds = static_cast<int>(r.i64());
  m.alarm_dismissals = static_cast<int>(r.i64());
  m.evacuation_alerts = static_cast<int>(r.i64());
  m.benign_self_evacuations = static_cast<int>(r.i64());
  m.false_alarm_evacuations = static_cast<int>(r.i64());
  m.malicious_reports_recorded = static_cast<int>(r.i64());
  m.blocks_published = static_cast<int>(r.i64());
  m.block_verification_failures = static_cast<int>(r.i64());
  m.plan_request_retries = static_cast<int>(r.i64());
  m.gap_block_requests = static_cast<int>(r.i64());
  m.degraded_entries = static_cast<int>(r.i64());
  m.degraded_crossings = static_cast<int>(r.i64());
  m.im_crashes = static_cast<int>(r.i64());
  m.im_restarts = static_cast<int>(r.i64());
  m.im_courtesy_gaps = static_cast<int>(r.i64());
  m.im_package_us.clear();
  m.vehicle_verify_us.clear();
  if (r.u8() != 0) {
    if (!load_wall_samples(r, m.im_package_us)) return false;
    if (!load_wall_samples(r, m.vehicle_verify_us)) return false;
  }
  return r.ok();
}

// --- MetricsSnapshot --------------------------------------------------------

namespace {

void save_i64_map(ByteWriter& w, const std::map<std::string, std::int64_t>& m) {
  w.u32(static_cast<std::uint32_t>(m.size()));
  for (const auto& [name, value] : m) {
    w.str(name);
    w.i64(value);
  }
}

bool load_i64_map(ByteReader& r, std::map<std::string, std::int64_t>& out) {
  out.clear();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 12) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    out[std::move(name)] = r.i64();
  }
  return r.ok();
}

void save_i64_vec(ByteWriter& w, const std::vector<std::int64_t>& xs) {
  w.u32(static_cast<std::uint32_t>(xs.size()));
  for (const std::int64_t x : xs) w.i64(x);
}

bool load_i64_vec(ByteReader& r, std::vector<std::int64_t>& out) {
  out.clear();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 8) return false;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.i64());
  return r.ok();
}

}  // namespace

void save_metrics_snapshot(ByteWriter& w,
                           const util::telemetry::MetricsSnapshot& snap) {
  save_i64_map(w, snap.counters);
  save_i64_map(w, snap.gauges);
  w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    w.str(name);
    save_i64_vec(w, h.upper_edges);
    save_i64_vec(w, h.bucket_counts);
    w.i64(h.count);
    w.i64(h.sum);
  }
}

bool load_metrics_snapshot(ByteReader& r,
                           util::telemetry::MetricsSnapshot& out) {
  if (!load_i64_map(r, out.counters)) return false;
  if (!load_i64_map(r, out.gauges)) return false;
  out.histograms.clear();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 28) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    util::telemetry::MetricsSnapshot::HistogramData h;
    if (!load_i64_vec(r, h.upper_edges)) return false;
    if (!load_i64_vec(r, h.bucket_counts)) return false;
    h.count = r.i64();
    h.sum = r.i64();
    out.histograms[std::move(name)] = std::move(h);
  }
  return r.ok();
}

// --- RunSummary -------------------------------------------------------------

namespace {

void save_kind_counts(
    ByteWriter& w, const std::unordered_map<std::string, std::uint64_t>& m) {
  std::vector<std::string> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (const std::string& k : keys) {
    w.str(k);
    w.u64(m.at(k));
  }
}

bool load_kind_counts(ByteReader& r,
                      std::unordered_map<std::string, std::uint64_t>& out) {
  out.clear();
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > r.remaining() / 12) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string k = r.str();
    out[std::move(k)] = r.u64();
  }
  return r.ok();
}

void save_run_summary_impl(ByteWriter& w, const RunSummary& s,
                           bool include_wall_samples) {
  save_metrics(w, s.metrics, include_wall_samples);
  w.u64(s.net_stats.packets_sent);
  w.u64(s.net_stats.packets_delivered);
  w.u64(s.net_stats.packets_dropped);
  w.u64(s.net_stats.packets_out_of_range);
  w.u64(s.net_stats.packets_duplicated);
  w.u64(s.net_stats.packets_lost_outage);
  w.u64(s.net_stats.bytes_sent);
  save_kind_counts(w, s.net_stats.packets_by_kind);
  save_kind_counts(w, s.net_stats.bytes_by_kind);
  save_kind_counts(w, s.net_stats.dropped_by_kind);
  save_metrics_snapshot(w, s.metrics_snapshot);
  w.f64(s.throughput_vpm);
  w.f64(s.mean_crossing_ms);
  w.i64(s.active_at_end);
  w.i64(s.min_ground_truth_gap_violations);
  w.i64(s.legacy_spawned);
  w.i64(s.legacy_exited);
}

}  // namespace

void save_run_summary(ByteWriter& w, const RunSummary& s) {
  save_run_summary_impl(w, s, /*include_wall_samples=*/true);
}

bool load_run_summary(ByteReader& r, RunSummary& s) {
  if (!load_metrics(r, s.metrics)) return false;
  s.net_stats.packets_sent = r.u64();
  s.net_stats.packets_delivered = r.u64();
  s.net_stats.packets_dropped = r.u64();
  s.net_stats.packets_out_of_range = r.u64();
  s.net_stats.packets_duplicated = r.u64();
  s.net_stats.packets_lost_outage = r.u64();
  s.net_stats.bytes_sent = r.u64();
  if (!load_kind_counts(r, s.net_stats.packets_by_kind)) return false;
  if (!load_kind_counts(r, s.net_stats.bytes_by_kind)) return false;
  if (!load_kind_counts(r, s.net_stats.dropped_by_kind)) return false;
  if (!load_metrics_snapshot(r, s.metrics_snapshot)) return false;
  s.throughput_vpm = r.f64();
  s.mean_crossing_ms = r.f64();
  s.active_at_end = static_cast<int>(r.i64());
  s.min_ground_truth_gap_violations = static_cast<int>(r.i64());
  s.legacy_spawned = static_cast<int>(r.i64());
  s.legacy_exited = static_cast<int>(r.i64());
  return r.ok();
}

std::string run_summary_digest(const RunSummary& s) {
  ByteWriter w;
  save_run_summary_impl(w, s, /*include_wall_samples=*/false);
  return to_hex(crypto::sha256(w.data()));
}

// --- replay bundles ---------------------------------------------------------

Bytes save_replay_bundle(const ReplayBundle& bundle) {
  ByteWriter w;
  w.str(kReplaySchema);
  save_scenario_config(w, bundle.config);
  w.i64(bundle.run_to);
  w.str(bundle.expected_digest);
  w.str(bundle.note);
  return w.take();
}

bool load_replay_bundle(const Bytes& blob, ReplayBundle& out,
                        std::string* error) {
  const auto fail = [&](const char* msg) {
    if (error) *error = msg;
    return false;
  };
  ByteReader r(blob);
  if (r.str() != kReplaySchema) return fail("not an nwade-replay-v1 bundle");
  if (!load_scenario_config(r, out.config)) {
    return fail("malformed scenario config");
  }
  out.run_to = r.i64();
  out.expected_digest = r.str();
  out.note = r.str();
  if (!r.ok() || !r.at_end()) return fail("truncated or trailing bytes");
  return true;
}

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

}  // namespace

Bytes World::checkpoint_save() const {
  // Checkpoints are only valid at step boundaries: between run_until calls
  // the clock sits exactly at the last completed step and every pending
  // event belongs to a serializable owner (network delivery, IM timer).
  assert(clock_.now() == stepped_until_);

  std::vector<std::pair<std::string, Bytes>> sections;
  const auto add = [&sections](const char* name, ByteWriter& w) {
    sections.emplace_back(name, w.take());
  };

  {
    ByteWriter w;
    checkpoint::save_scenario_config(w, config_);
    add(kSectionConfig, w);
  }
  {
    ByteWriter w;
    w.i64(stepped_until_);
    w.u64(queue_.next_seq());
    w.i64(gap_violations_);
    w.u32(static_cast<std::uint32_t>(crossing_times_.size()));
    for (const Duration d : crossing_times_) w.i64(d);
    w.u32(static_cast<std::uint32_t>(spawn_times_.size()));
    for (const auto& [id, t] : spawn_times_) {
      w.u64(id.value);
      w.i64(t);
    }
    add(kSectionTime, w);
  }
  {
    ByteWriter w;
    checkpoint::save_metrics(w, metrics_, /*include_wall_samples=*/true);
    add(kSectionMetrics, w);
  }
  {
    ByteWriter w;
    network_->checkpoint_save(w, [](ByteWriter& ww, const net::Message& m) {
      protocol::encode_message(ww, m);
    });
    add(kSectionNetwork, w);
  }
  {
    ByteWriter w;
    im_->checkpoint_save(w);
    add(kSectionIm, w);
  }
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(vehicles_.size()));
    for (const auto& [id, v] : vehicles_) {
      w.u64(id.value);
      w.i64(v->route_id());
      v->traits().serialize(w);
      w.i64(v->spawn_time());
      const protocol::VehicleAttackProfile& a = v->attack_profile();
      w.u8(static_cast<std::uint8_t>(a.role));
      w.i64(a.trigger_at);
      w.u8(static_cast<std::uint8_t>(a.deviation));
      w.u8(static_cast<std::uint8_t>(a.false_report));
      // The SoA row this vehicle owns. Restore must re-construct nodes in
      // *row* order (not id order) so every node claims the row it held
      // before the checkpoint: grid handoffs inject foreign ids whose rows
      // interleave chronologically with local spawns, breaking the old
      // "ascending id == spawn order" invariant.
      w.u32(static_cast<std::uint32_t>(v->kin_row()));
      // Node state travels as a length-prefixed blob so the restore side
      // can stage all records before constructing any node.
      ByteWriter node_w;
      v->checkpoint_save(node_w);
      w.bytes(node_w.take());
    }
    add(kSectionVehicles, w);
  }
  {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(legacy_.size()));
    for (const auto& [id, l] : legacy_) {
      w.u64(id.value);
      w.i64(l.route_id);
      l.traits.serialize(w);
      w.f64(l.s);
      w.f64(l.v);
      w.f64(l.cruise);
      w.u8(l.exited ? 1 : 0);
    }
    add(kSectionLegacy, w);
  }
  {
    ByteWriter w;
    verify_cache_.checkpoint_save(w);
    add(kSectionCrypto, w);
  }
  {
    ByteWriter w;
    checkpoint::save_metrics_snapshot(w, registry_.snapshot());
    add(kSectionTelemetry, w);
  }

  ByteWriter out;
  out.str(checkpoint::kCheckpointSchema);
  out.u32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& [name, payload] : sections) {
    out.str(name);
    out.u32(util::crc32(payload));
    out.bytes(payload);
  }
  return out.take();
}

std::unique_ptr<World> World::checkpoint_restore(const Bytes& blob,
                                                 std::string* error) {
  const auto fail = [&](const std::string& msg) -> std::unique_ptr<World> {
    if (error) *error = msg;
    return nullptr;
  };

  ByteReader r(blob);
  if (r.str() != checkpoint::kCheckpointSchema) {
    return fail("not an nwade-ckpt-v1 checkpoint");
  }
  const std::uint32_t n_sections = r.u32();
  if (!r.ok() || n_sections > kMaxSections) {
    return fail("malformed section table");
  }
  std::map<std::string, Bytes> sections;
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    std::string name = r.str();
    const std::uint32_t crc = r.u32();
    Bytes payload = r.bytes();
    if (!r.ok()) return fail("truncated section '" + name + "'");
    if (util::crc32(payload) != crc) {
      return fail("CRC mismatch in section '" + name + "'");
    }
    sections[std::move(name)] = std::move(payload);
  }
  if (!r.at_end()) return fail("trailing bytes after section table");

  const auto config_it = sections.find(kSectionConfig);
  const auto time_it = sections.find(kSectionTime);
  if (config_it == sections.end() || time_it == sections.end()) {
    return fail("missing config/time section");
  }
  ScenarioConfig config;
  {
    ByteReader cr(config_it->second);
    if (!checkpoint::load_scenario_config(cr, config) || !cr.at_end()) {
      return fail("malformed config section");
    }
  }
  Tick resume_t = 0;
  {
    ByteReader tr(time_it->second);
    resume_t = tr.i64();
    if (!tr.ok() || resume_t < 0) return fail("malformed time section");
  }

  auto world =
      std::unique_ptr<World>(new World(std::move(config), resume_t));
  if (!world->apply_checkpoint(sections, error)) return nullptr;
  return world;
}

bool World::apply_checkpoint(const std::map<std::string, Bytes>& sections,
                             std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  const auto section = [&sections](const char* name) -> const Bytes* {
    const auto it = sections.find(name);
    return it == sections.end() ? nullptr : &it->second;
  };
  const Bytes* time_s = section(kSectionTime);
  const Bytes* metrics_s = section(kSectionMetrics);
  const Bytes* network_s = section(kSectionNetwork);
  const Bytes* im_s = section(kSectionIm);
  const Bytes* vehicles_s = section(kSectionVehicles);
  const Bytes* legacy_s = section(kSectionLegacy);
  const Bytes* crypto_s = section(kSectionCrypto);
  const Bytes* telemetry_s = section(kSectionTelemetry);
  if (!time_s || !metrics_s || !network_s || !im_s || !vehicles_s ||
      !legacy_s || !crypto_s || !telemetry_s) {
    return fail("missing checkpoint section");
  }

  std::uint64_t saved_next_seq = 0;
  {
    ByteReader r(*time_s);
    stepped_until_ = r.i64();
    saved_next_seq = r.u64();
    gap_violations_ = static_cast<int>(r.i64());
    crossing_times_.clear();
    const std::uint32_t n_cross = r.u32();
    if (!r.ok() || n_cross > r.remaining() / 8) {
      return fail("malformed time section");
    }
    crossing_times_.reserve(n_cross);
    for (std::uint32_t i = 0; i < n_cross; ++i) {
      crossing_times_.push_back(r.i64());
    }
    spawn_times_.clear();
    const std::uint32_t n_spawn = r.u32();
    if (!r.ok() || n_spawn > r.remaining() / 16) {
      return fail("malformed time section");
    }
    for (std::uint32_t i = 0; i < n_spawn; ++i) {
      const VehicleId id{r.u64()};
      spawn_times_[id] = r.i64();
    }
    if (!r.ok() || !r.at_end()) return fail("malformed time section");
  }
  clock_.advance_to(stepped_until_);

  {
    ByteReader r(*metrics_s);
    if (!checkpoint::load_metrics(r, metrics_) || !r.at_end()) {
      return fail("malformed metrics section");
    }
  }
  // One Block per distinct block across the network, the IM window and
  // every vehicle store, as in a running world.
  chain::BlockTable blocks;
  {
    ByteReader r(*network_s);
    if (!network_->checkpoint_restore(
            r,
            [&blocks](ByteReader& rr) { return protocol::decode_message(rr, blocks); }) ||
        !r.at_end()) {
      return fail("malformed network section");
    }
  }
  {
    ByteReader r(*im_s);
    if (!im_->checkpoint_restore(r, blocks) || !r.at_end()) {
      return fail("malformed im section");
    }
  }
  {
    ByteReader r(*vehicles_s);
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > r.remaining() / 44) {
      return fail("malformed vehicles section");
    }
    // Stage every record first, then construct in *row* order: rows encode
    // the original spawn/injection chronology, which grid handoffs decouple
    // from id order. Constructing row-by-row reproduces both the SoA row
    // assignment and the network's add_node order.
    struct VehicleRecord {
      VehicleId id;
      int route_id{0};
      traffic::VehicleTraits traits;
      Tick spawn_time{0};
      protocol::VehicleAttackProfile profile;
      std::uint32_t row{0};
      Bytes node_blob;
    };
    std::vector<VehicleRecord> records;
    records.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      VehicleRecord rec;
      rec.id = VehicleId{r.u64()};
      rec.route_id = static_cast<int>(r.i64());
      rec.traits = traffic::VehicleTraits::deserialize(r);
      rec.spawn_time = r.i64();
      const std::uint8_t role = r.u8();
      if (!r.ok() ||
          role > static_cast<std::uint8_t>(
                     protocol::VehicleRole::kFalseReporter)) {
        return fail("malformed vehicles section");
      }
      rec.profile.role = static_cast<protocol::VehicleRole>(role);
      rec.profile.trigger_at = r.i64();
      rec.profile.deviation = static_cast<protocol::DeviationMode>(r.u8() & 1);
      rec.profile.false_report =
          static_cast<protocol::FalseReportKind>(r.u8() & 1);
      rec.row = r.u32();
      rec.node_blob = r.bytes();
      if (!r.ok()) return fail("malformed vehicles section");
      records.push_back(std::move(rec));
    }
    if (!r.at_end()) return fail("malformed vehicles section");
    std::sort(records.begin(), records.end(),
              [](const VehicleRecord& a, const VehicleRecord& b) {
                return a.row != b.row ? a.row < b.row
                                      : a.id.value < b.id.value;
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
      ByteReader nr(rec.node_blob);
      if (!node->checkpoint_restore(nr, blocks) || !nr.at_end()) {
        return fail("malformed vehicles section");
      }
      // Exited vehicles were removed from the network when they left; their
      // chain stores still matter (trace digests fold every vehicle). A
      // restored vehicle never start()s — its spawn is history.
      if (!node->exited()) network_->add_node(node.get());
      vehicles_[rec.id] = std::move(node);
    }
  }
  {
    ByteReader r(*legacy_s);
    const std::uint32_t n = r.u32();
    if (!r.ok() || n > r.remaining() / 52) {
      return fail("malformed legacy section");
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const VehicleId id{r.u64()};
      LegacyVehicle l;
      l.route_id = static_cast<int>(r.i64());
      l.traits = traffic::VehicleTraits::deserialize(r);
      l.s = r.f64();
      l.v = r.f64();
      l.cruise = r.f64();
      l.exited = r.u8() != 0;
      legacy_[id] = l;
    }
    if (!r.ok() || !r.at_end()) return fail("malformed legacy section");
  }
  {
    ByteReader r(*crypto_s);
    if (!verify_cache_.checkpoint_restore(r) || !r.at_end()) {
      return fail("malformed crypto section");
    }
  }
  // Telemetry last: reconstruction above re-touches gauges and counters
  // (add_node, kind-handle recreation); the snapshot overwrite is the final
  // word so restored values exactly match the saved run's registry.
  {
    ByteReader r(*telemetry_s);
    util::telemetry::MetricsSnapshot snap;
    if (!checkpoint::load_metrics_snapshot(r, snap) || !r.at_end()) {
      return fail("malformed telemetry section");
    }
    registry_.restore(snap);
  }
  // The allocation counter moves last of all: every schedule_at_seq above
  // left it untouched, and construction-time burning advanced it exactly as
  // the original construction did, so this lands it on the saved value.
  queue_.set_next_seq(saved_next_seq);
  ++position_epoch_;
  return true;
}

}  // namespace nwade::sim
