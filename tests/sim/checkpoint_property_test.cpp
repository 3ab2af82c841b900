// Round-trip property tests for every checkpoint wire form: randomized
// values must survive save -> load -> save with byte-identical output (the
// canonical-serialization property the whole checkpoint subsystem leans on),
// and the summary digest must be a function of deterministic state only.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/fault.h"
#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/world.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace nwade::sim {
namespace {

using Rng = std::mt19937_64;

int rint(Rng& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

double rdouble(Rng& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

protocol::Metrics random_metrics(Rng& rng) {
  protocol::Metrics m;
  auto maybe_tick = [&rng]() -> std::optional<Tick> {
    if (rint(rng, 0, 1) == 0) return std::nullopt;
    return Tick{rint(rng, 0, 200'000)};
  };
  m.violation_start = maybe_tick();
  m.first_true_incident = maybe_tick();
  m.deviation_confirmed = maybe_tick();
  m.false_incident_injected = maybe_tick();
  m.false_incident_dismissed = maybe_tick();
  m.false_global_injected = maybe_tick();
  m.false_global_detected = maybe_tick();
  m.im_conflict_injected = maybe_tick();
  m.im_conflict_detected = maybe_tick();
  m.sham_alert_detected = maybe_tick();
  for (int* counter :
       {&m.vehicles_spawned, &m.vehicles_exited, &m.incident_reports,
        &m.global_reports, &m.verify_rounds, &m.alarm_dismissals,
        &m.evacuation_alerts, &m.benign_self_evacuations,
        &m.false_alarm_evacuations, &m.malicious_reports_recorded,
        &m.blocks_published, &m.block_verification_failures,
        &m.plan_request_retries, &m.gap_block_requests, &m.degraded_entries,
        &m.degraded_crossings, &m.im_crashes, &m.im_restarts,
        &m.im_courtesy_gaps}) {
    *counter = rint(rng, 0, 10'000);
  }
  for (int i = rint(rng, 0, 8); i > 0; --i) {
    m.im_package_us.push_back(rdouble(rng, 0, 5000));
  }
  for (int i = rint(rng, 0, 8); i > 0; --i) {
    m.vehicle_verify_us.push_back(rdouble(rng, 0, 5000));
  }
  return m;
}

util::telemetry::MetricsSnapshot random_snapshot(Rng& rng) {
  util::telemetry::MetricsSnapshot snap;
  for (int i = rint(rng, 0, 6); i > 0; --i) {
    snap.counters["c" + std::to_string(rint(rng, 0, 99))] =
        rint(rng, 0, 1'000'000);
  }
  for (int i = rint(rng, 0, 6); i > 0; --i) {
    snap.gauges["g" + std::to_string(rint(rng, 0, 99))] =
        rint(rng, -1'000, 1'000'000);
  }
  for (int i = rint(rng, 0, 3); i > 0; --i) {
    util::telemetry::MetricsSnapshot::HistogramData h;
    for (int e = rint(rng, 1, 5), edge = 1; e > 0; --e, edge *= 2) {
      h.upper_edges.push_back(edge);
      h.bucket_counts.push_back(rint(rng, 0, 50));
    }
    h.bucket_counts.push_back(rint(rng, 0, 50));  // overflow bucket
    for (const std::int64_t c : h.bucket_counts) h.count += c;
    h.sum = rint(rng, 0, 100'000);
    snap.histograms["h" + std::to_string(rint(rng, 0, 99))] = std::move(h);
  }
  return snap;
}

RunSummary random_summary(Rng& rng) {
  RunSummary s;
  s.metrics = random_metrics(rng);
  s.metrics_snapshot = random_snapshot(rng);
  s.net_stats.packets_sent = static_cast<std::uint64_t>(rint(rng, 0, 1 << 20));
  s.net_stats.packets_delivered =
      static_cast<std::uint64_t>(rint(rng, 0, 1 << 20));
  s.net_stats.packets_dropped = static_cast<std::uint64_t>(rint(rng, 0, 4096));
  s.net_stats.packets_out_of_range =
      static_cast<std::uint64_t>(rint(rng, 0, 4096));
  s.net_stats.packets_duplicated =
      static_cast<std::uint64_t>(rint(rng, 0, 4096));
  s.net_stats.packets_lost_outage =
      static_cast<std::uint64_t>(rint(rng, 0, 4096));
  s.net_stats.bytes_sent = static_cast<std::uint64_t>(rint(rng, 0, 1 << 28));
  for (int i = rint(rng, 0, 4); i > 0; --i) {
    const std::string kind = "kind" + std::to_string(rint(rng, 0, 9));
    s.net_stats.packets_by_kind[kind] =
        static_cast<std::uint64_t>(rint(rng, 1, 10'000));
    s.net_stats.bytes_by_kind[kind] =
        static_cast<std::uint64_t>(rint(rng, 1, 1 << 20));
    if (rint(rng, 0, 1) != 0) {
      s.net_stats.dropped_by_kind[kind] =
          static_cast<std::uint64_t>(rint(rng, 1, 100));
    }
  }
  s.throughput_vpm = rdouble(rng, 0, 200);
  s.mean_crossing_ms = rdouble(rng, 0, 60'000);
  s.active_at_end = rint(rng, 0, 200);
  s.min_ground_truth_gap_violations = rint(rng, 0, 10);
  s.legacy_spawned = rint(rng, 0, 100);
  s.legacy_exited = rint(rng, 0, 100);
  return s;
}

ScenarioConfig random_scenario(Rng& rng) {
  ScenarioConfig s;
  s.intersection.kind =
      traffic::kAllIntersectionKinds[rint(rng, 0, 4) % 5];
  s.vehicles_per_minute = rdouble(rng, 10, 200);
  s.duration_ms = rint(rng, 10'000, 600'000);
  s.step_ms = 100;
  s.seed = static_cast<std::uint64_t>(rint(rng, 1, 1 << 30));
  s.nwade.deviation_tolerance_m = rdouble(rng, 1, 10);
  s.nwade.verification_round_ms = rint(rng, 100, 2000);
  s.nwade.plan_grace_ms = rint(rng, 0, 5000);
  s.nwade.double_check_verification = rint(rng, 0, 1) != 0;
  s.nwade.chain_depth = static_cast<std::size_t>(rint(rng, 4, 256));
  s.scheduler.margin_ms = rint(rng, 100, 2000);
  s.network.latency_ms = rint(rng, 1, 100);
  s.network.loss_probability = rdouble(rng, 0, 0.3);
  s.network.seed = static_cast<std::uint64_t>(rint(rng, 1, 1 << 30));
  if (rint(rng, 0, 1) != 0) {
    s.network.fault = net::burst_loss_profile(rdouble(rng, 0.01, 0.3),
                                              rdouble(rng, 1.5, 8.0));
    s.network.fault.jitter_ms = rint(rng, 0, 80);
    s.network.fault.duplicate_probability = rdouble(rng, 0, 0.2);
  }
  for (int i = rint(rng, 0, 2); i > 0; --i) {
    net::LinkRule rule;
    rule.from = NodeId{static_cast<std::uint64_t>(rint(rng, 0, 50))};
    rule.kind = rint(rng, 0, 1) != 0 ? "Block" : "";
    rule.drop_probability = rdouble(rng, 0.1, 1.0);
    rule.active_from = rint(rng, 0, 50'000);
    rule.active_until = rint(rng, 50'000, 100'000);
    s.network.fault.link_rules.push_back(rule);
  }
  for (int i = rint(rng, 0, 2); i > 0; --i) {
    net::Outage outage;
    outage.node = NodeId{static_cast<std::uint64_t>(rint(rng, 1, 50))};
    outage.from = rint(rng, 0, 50'000);
    outage.until = outage.from + rint(rng, 1000, 20'000);
    s.network.fault.outages.push_back(outage);
  }
  s.signer = static_cast<SignerKind>(rint(rng, 0, 2));
  s.attack = protocol::table1_attack_settings()[static_cast<std::size_t>(
      rint(rng, 0, 10))];
  s.attack_time = rint(rng, 10'000, 100'000);
  s.nwade.security_enabled = rint(rng, 0, 9) != 0;
  s.legacy_fraction = rint(rng, 0, 1) != 0 ? rdouble(rng, 0, 0.5) : 0.0;
  // The draw of a since-removed flag, kept so every later draw — and with
  // it every seeded scenario below — stays what it was.
  (void)rint(rng, 0, 9);
  s.trace_enabled = rint(rng, 0, 1) != 0;
  return s;
}

template <typename T, typename Save, typename Load>
void expect_round_trip(const T& value, Save save, Load load) {
  ByteWriter w;
  save(w, value);
  const Bytes first = w.data();

  ByteReader r(first);
  T loaded{};
  ASSERT_TRUE(load(r, loaded));
  EXPECT_TRUE(r.at_end());

  ByteWriter w2;
  save(w2, loaded);
  EXPECT_EQ(first, w2.data());
}

TEST(CheckpointProperty, ScenarioConfigRoundTripIsByteIdentical) {
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 50; ++i) {
    const ScenarioConfig original = random_scenario(rng);
    expect_round_trip(
        original,
        [](ByteWriter& w, const ScenarioConfig& v) {
          checkpoint::save_scenario_config(w, v);
        },
        [](ByteReader& r, ScenarioConfig& v) {
          return checkpoint::load_scenario_config(r, v);
        });
  }
}

TEST(CheckpointProperty, MetricsRoundTripIsByteIdentical) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 50; ++i) {
    expect_round_trip(
        random_metrics(rng),
        [](ByteWriter& w, const protocol::Metrics& v) { save(w, v); },
        [](ByteReader& r, protocol::Metrics& v) { return load(r, v); });
  }
}

TEST(CheckpointProperty, MetricsWithoutWallSamplesLoadsEmptySamples) {
  Rng rng(0xABCD);
  const protocol::Metrics m = random_metrics(rng);
  ByteWriter w;
  WriteArchive ar(w);
  protocol::Metrics::io(ar, m, /*wall_samples=*/false);
  ByteReader r(w.data());
  protocol::Metrics loaded;
  ASSERT_TRUE(load(r, loaded));
  EXPECT_TRUE(loaded.im_package_us.empty());
  EXPECT_TRUE(loaded.vehicle_verify_us.empty());
  EXPECT_EQ(loaded.vehicles_spawned, m.vehicles_spawned);
  EXPECT_EQ(loaded.deviation_confirmed, m.deviation_confirmed);
}

TEST(CheckpointProperty, MetricsSnapshotRoundTripIsByteIdentical) {
  Rng rng(0xF00D);
  for (int i = 0; i < 50; ++i) {
    expect_round_trip(
        random_snapshot(rng),
        [](ByteWriter& w, const util::telemetry::MetricsSnapshot& v) {
          save(w, v);
        },
        [](ByteReader& r, util::telemetry::MetricsSnapshot& v) {
          return load(r, v);
        });
  }
}

TEST(CheckpointProperty, RunSummaryRoundTripIsByteIdentical) {
  Rng rng(0x5EED);
  for (int i = 0; i < 30; ++i) {
    expect_round_trip(
        random_summary(rng),
        [](ByteWriter& w, const RunSummary& v) {
          checkpoint::save_run_summary(w, v);
        },
        [](ByteReader& r, RunSummary& v) {
          return checkpoint::load_run_summary(r, v);
        });
  }
}

TEST(CheckpointProperty, DigestIgnoresWallClockSamplesOnly) {
  Rng rng(0xD16E57);
  RunSummary a = random_summary(rng);
  RunSummary b = a;
  // The wall-clock vectors are machine noise; two runs of the same scenario
  // must digest identically no matter what the host's timers measured.
  b.metrics.im_package_us = {1.0, 2.0, 3.0};
  b.metrics.vehicle_verify_us.push_back(123.0);
  EXPECT_EQ(checkpoint::run_summary_digest(a), checkpoint::run_summary_digest(b));

  // Any deterministic field, by contrast, must move the digest.
  RunSummary c = a;
  c.metrics.vehicles_exited += 1;
  EXPECT_NE(checkpoint::run_summary_digest(a), checkpoint::run_summary_digest(c));
}

TEST(CheckpointProperty, ReplayBundleRoundTrips) {
  Rng rng(0x1CEB00);
  for (int i = 0; i < 20; ++i) {
    checkpoint::ReplayBundle bundle;
    bundle.config = random_scenario(rng);
    bundle.run_to = rint(rng, 0, 600'000);
    bundle.expected_digest = "deadbeef" + std::to_string(i);
    bundle.note = i % 2 == 0 ? "soak invariant violation" : "";
    const Bytes blob = checkpoint::save_replay_bundle(bundle);

    checkpoint::ReplayBundle loaded;
    ASSERT_TRUE(checkpoint::load_replay_bundle(blob, loaded));
    EXPECT_EQ(loaded.run_to, bundle.run_to);
    EXPECT_EQ(loaded.expected_digest, bundle.expected_digest);
    EXPECT_EQ(loaded.note, bundle.note);
    EXPECT_EQ(checkpoint::save_replay_bundle(loaded), blob);
  }
}

/// Configs no run can start from: a step the watch interval cannot be
/// divided by, and arrival rates the arrival generator does not accept.
std::vector<ScenarioConfig> unrunnable_configs() {
  std::vector<ScenarioConfig> out;
  for (const Duration step : {Duration{0}, Duration{-100}}) {
    out.emplace_back().step_ms = step;
  }
  for (const double vpm : {-80.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    out.emplace_back().vehicles_per_minute = vpm;
  }
  return out;
}

TEST(CheckpointProperty, ReplayBundleRejectsConfigsNoRunCanStartFrom) {
  for (const ScenarioConfig& config : unrunnable_configs()) {
    checkpoint::ReplayBundle bundle;
    bundle.config = config;
    bundle.run_to = 10'000;
    checkpoint::ReplayBundle loaded;
    std::string error;
    EXPECT_FALSE(checkpoint::load_replay_bundle(
        checkpoint::save_replay_bundle(bundle), loaded, &error))
        << "step_ms " << config.step_ms << ", vpm " << config.vehicles_per_minute;
    EXPECT_FALSE(error.empty());
  }
}

/// Section `name` of a World envelope.
Bytes section_of(const Bytes& blob, const std::string& name) {
  checkpoint::SectionReader in;
  std::string error;
  EXPECT_TRUE(in.parse(blob, checkpoint::kCheckpointSchema, 64, &error)) << error;
  const Bytes* payload = in.find(name);
  EXPECT_NE(payload, nullptr) << "no section '" << name << "'";
  return payload != nullptr ? *payload : Bytes{};
}

/// The envelope with section `name` swapped for `payload` and that section's
/// CRC recomputed, so only the section's own checks can refuse it.
Bytes with_section(const Bytes& blob, const std::string& name, const Bytes& payload) {
  ByteReader r(blob);
  ByteWriter out;
  out.str(r.str());
  const std::uint32_t n = r.u32();
  out.u32(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string section = r.str();
    const std::uint32_t crc = r.u32();
    const Bytes original = r.bytes();
    const bool swapped = section == name;
    out.str(section);
    out.u32(swapped ? util::crc32(payload) : crc);
    out.bytes(swapped ? payload : original);
  }
  EXPECT_TRUE(r.ok() && r.at_end());
  return out.take();
}

TEST(CheckpointProperty, WorldRestoreRejectsConfigsNoRunCanStartFrom) {
  ScenarioConfig s;
  s.duration_ms = 20'000;
  World world(s);
  world.run_until(5'000);
  const Bytes blob = world.checkpoint_save();
  for (const ScenarioConfig& bad : unrunnable_configs()) {
    ScenarioConfig config = world.config();
    config.step_ms = bad.step_ms;
    config.vehicles_per_minute = bad.vehicles_per_minute;
    ByteWriter section;
    checkpoint::save_scenario_config(section, config);
    const Bytes forged = with_section(blob, "config", section.data());
    std::string error;
    // ASSERT: a world built from such a config may never finish stepping.
    ASSERT_EQ(World::checkpoint_restore(forged, &error), nullptr)
        << "step_ms " << bad.step_ms << ", vpm " << bad.vehicles_per_minute;
    EXPECT_FALSE(error.empty());
  }
}

/// The `crypto` section (SigVerifyCache::io) as plain values: capacity,
/// next_seq, four counters, then 16 entry lists.
struct CryptoSection {
  struct Entry {
    std::uint64_t seq{0};
    Bytes key;
    std::uint8_t ok{0};
  };
  std::uint64_t capacity{0};
  std::uint64_t next_seq{0};
  std::array<std::uint64_t, 4> counters{};
  std::array<std::vector<Entry>, 16> lists;

  explicit CryptoSection(const Bytes& payload) {
    ByteReader r(payload);
    capacity = r.u64();
    next_seq = r.u64();
    for (auto& c : counters) c = r.u64();
    for (auto& list : lists) {
      for (std::uint32_t n = r.u32(); n > 0 && r.ok(); --n) {
        Entry& e = list.emplace_back();
        e.seq = r.u64();
        e.key = r.bytes();
        e.ok = r.u8();
      }
    }
    EXPECT_TRUE(r.ok() && r.at_end());
  }
  Bytes encode() const {
    ByteWriter w;
    w.u64(capacity);
    w.u64(next_seq);
    for (const auto c : counters) w.u64(c);
    for (const auto& list : lists) {
      w.u32(static_cast<std::uint32_t>(list.size()));
      for (const Entry& e : list) {
        w.u64(e.seq);
        w.bytes(e.key);
        w.u8(e.ok);
      }
    }
    return w.take();
  }
  std::size_t entries() const {
    std::size_t n = 0;
    for (const auto& list : lists) n += list.size();
    return n;
  }
  /// The list holding the newest entry (the greatest seq), at its back.
  std::size_t newest_list() const {
    std::size_t best = lists.size();
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (!lists[i].empty() &&
          (best == lists.size() || lists[i].back().seq > lists[best].back().seq)) {
        best = i;
      }
    }
    return best;
  }
};

/// An RSA world's checkpoint, whose `crypto` section holds a filled verify
/// cache (14 entries in 11 of the 16 lists at 20 s).
const Bytes& rsa_checkpoint() {
  static const Bytes blob = [] {
    ScenarioConfig s;
    s.signer = SignerKind::kRsa1024;
    s.duration_ms = 60'000;
    World world(s);
    world.run_until(20'000);
    return world.checkpoint_save();
  }();
  return blob;
}

/// Restores rsa_checkpoint() with its `crypto` section edited by `edit`.
template <class Edit>
std::unique_ptr<World> restore_with_crypto(Edit edit, std::string* error) {
  const Bytes& blob = rsa_checkpoint();
  const Bytes original = section_of(blob, "crypto");
  CryptoSection c(original);
  EXPECT_EQ(c.encode(), original);  // the model above is the whole section
  EXPECT_GT(c.entries(), 1u);
  edit(c);
  return World::checkpoint_restore(with_section(blob, "crypto", c.encode()), error);
}

TEST(CheckpointProperty, CryptoSectionEditedValidlyStillRestores) {
  std::string error;
  // Counters are free values; only the entry lists are checked.
  EXPECT_NE(restore_with_crypto([](CryptoSection& c) { c.counters[0] += 1; }, &error),
            nullptr)
      << error;
}

TEST(CheckpointProperty, CryptoSectionRejectsARepeatedKey) {
  std::string error;
  EXPECT_EQ(restore_with_crypto(
                [](CryptoSection& c) {
                  // A second entry for the newest key, under a seq issued
                  // after it.
                  auto& list = c.lists[c.newest_list()];
                  list.push_back({c.next_seq++, list.back().key, list.back().ok});
                },
                &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointProperty, CryptoSectionRejectsAKeyInAnotherList) {
  std::string error;
  EXPECT_EQ(restore_with_crypto(
                [](CryptoSection& c) {
                  // The newest entry, moved to the back of the next list.
                  const std::size_t from = c.newest_list();
                  auto& to = c.lists[(from + 1) % c.lists.size()];
                  to.push_back(c.lists[from].back());
                  c.lists[from].pop_back();
                },
                &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointProperty, CryptoSectionRejectsSeqsThatDoNotRiseWithinAList) {
  std::string error;
  EXPECT_EQ(restore_with_crypto(
                [](CryptoSection& c) {
                  for (auto& list : c.lists) {
                    if (list.size() < 2) continue;
                    std::swap(list[0], list[1]);
                    return;
                  }
                  ADD_FAILURE() << "no list holds two entries";
                },
                &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointProperty, CryptoSectionRejectsASeqNotYetIssued) {
  std::string error;
  EXPECT_EQ(restore_with_crypto(
                [](CryptoSection& c) {
                  c.lists[c.newest_list()].back().seq = c.next_seq;
                },
                &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointProperty, CryptoSectionRejectsMoreEntriesThanItsCapacity) {
  std::string error;
  EXPECT_EQ(restore_with_crypto(
                [](CryptoSection& c) { c.capacity = c.entries() - 1; }, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointProperty, WorldSaveLoadSaveOnRandomizedScenarios) {
  // Whole-envelope property over scenarios the golden suite never pins:
  // random kind/density/faults, saved mid-run, must restore to a world that
  // re-saves the exact same bytes.
  Rng rng(0x5A7E);
  for (int i = 0; i < 3; ++i) {
    ScenarioConfig s = random_scenario(rng);
    s.duration_ms = 30'000;
    s.vehicles_per_minute = rdouble(rng, 30, 90);
    s.trace_enabled = false;
    s.signer = SignerKind::kHmac;  // keep the property loop fast
    World world(s);
    world.run_until(rint(rng, 5, 20) * 1000);

    const Bytes blob = world.checkpoint_save();
    std::string error;
    const auto restored = World::checkpoint_restore(blob, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->checkpoint_save(), blob) << "scenario " << i;
  }
}

TEST(CampaignFingerprint, IgnoresExecutionKnobsOnly) {
  CampaignConfig cfg;
  cfg.attacks = {"benign", "V1"};
  cfg.densities_vpm = {60, 120};
  cfg.rounds = 2;
  const std::string base = campaign_fingerprint(cfg);

  // threads/trace change how the campaign executes, never what it computes.
  CampaignConfig threads = cfg;
  threads.threads = 8;
  EXPECT_EQ(campaign_fingerprint(threads), base);

  CampaignConfig axes = cfg;
  axes.densities_vpm = {60, 121};
  EXPECT_NE(campaign_fingerprint(axes), base);

  CampaignConfig seed = cfg;
  seed.base_seed = 2;
  EXPECT_NE(campaign_fingerprint(seed), base);

  CampaignConfig rounds = cfg;
  rounds.rounds = 3;
  EXPECT_NE(campaign_fingerprint(rounds), base);

  // The base scenario is part of the identity: a journal recorded under one
  // fault profile must not resume a campaign under another.
  CampaignConfig faults = cfg;
  faults.base.network.loss_probability = 0.1;
  EXPECT_NE(campaign_fingerprint(faults), base);
}

}  // namespace
}  // namespace nwade::sim
