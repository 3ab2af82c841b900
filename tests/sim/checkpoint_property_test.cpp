// Round-trip property tests for every checkpoint wire form: randomized
// values must survive save -> load -> save with byte-identical output (the
// canonical-serialization property the whole checkpoint subsystem leans on),
// and the summary digest must be a function of deterministic state only.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "net/fault.h"
#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/world.h"
#include "util/bytes.h"

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
  s.nwade_enabled = rint(rng, 0, 9) != 0;
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
        [](ByteWriter& w, const protocol::Metrics& v) {
          checkpoint::save_metrics(w, v, /*include_wall_samples=*/true);
        },
        [](ByteReader& r, protocol::Metrics& v) {
          return checkpoint::load_metrics(r, v);
        });
  }
}

TEST(CheckpointProperty, MetricsWithoutWallSamplesLoadsEmptySamples) {
  Rng rng(0xABCD);
  const protocol::Metrics m = random_metrics(rng);
  ByteWriter w;
  checkpoint::save_metrics(w, m, /*include_wall_samples=*/false);
  ByteReader r(w.data());
  protocol::Metrics loaded;
  ASSERT_TRUE(checkpoint::load_metrics(r, loaded));
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
          checkpoint::save_metrics_snapshot(w, v);
        },
        [](ByteReader& r, util::telemetry::MetricsSnapshot& v) {
          return checkpoint::load_metrics_snapshot(r, v);
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
