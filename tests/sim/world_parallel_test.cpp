// Intra-world parallelism determinism lock (ctest label: chaos, so the
// TSan tree vets the chunked fan-out): `ScenarioConfig::step_threads` may
// only change the wall clock, never a result byte. The pooled watch scan
// uses fixed chunk boundaries and commits serially in id order, every other
// phase runs serially, and signatures are verified on the stepping thread
// during event delivery — so any thread count must reproduce the
// single-threaded run bit for bit, summary digest included.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/world.h"

namespace nwade::sim {
namespace {

// The five golden-trace scenarios (tests/sim/trace_golden_test.cpp): the
// thread-count sweep certifies determinism exactly where the digest locks
// watch for drift.
ScenarioConfig golden(traffic::IntersectionKind kind, double vpm,
                      std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.intersection.kind = kind;
  cfg.vehicles_per_minute = vpm;
  cfg.duration_ms = 120'000;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::pair<std::string, ScenarioConfig>> golden_scenarios() {
  std::vector<std::pair<std::string, ScenarioConfig>> out;
  out.emplace_back("BenignCross4",
                   golden(traffic::IntersectionKind::kCross4, 80, 1));
  out.emplace_back("DenseCross4",
                   golden(traffic::IntersectionKind::kCross4, 120, 7));
  {
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kRoundabout3, 60, 3);
    cfg.legacy_fraction = 0.25;
    out.emplace_back("MixedTrafficRoundabout", cfg);
  }
  {
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 80, 5);
    cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
    out.emplace_back("DeviationAttackCross4", cfg);
  }
  {
    ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 80, 11);
    cfg.network.fault.outages.push_back(net::Outage{kImNodeId, 20'000, 70'000});
    cfg.legacy_fraction = 0.2;
    cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
    out.emplace_back("ImOutageWithLegacyAndDeviator", cfg);
  }
  return out;
}

// %a renders doubles exactly (hex float): equality means bit-identical.
std::string fingerprint(const RunSummary& s) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "spawned=%d exited=%d thr=%a cross=%a active=%d gaps=%d "
      "legacy=%d/%d inc=%d glob=%d alerts=%d false=%d degraded=%d blocks=%d "
      "sent=%llu delivered=%llu dropped=%llu oor=%llu bytes=%llu",
      s.metrics.vehicles_spawned, s.metrics.vehicles_exited, s.throughput_vpm,
      s.mean_crossing_ms, s.active_at_end, s.min_ground_truth_gap_violations,
      s.legacy_spawned, s.legacy_exited, s.metrics.incident_reports,
      s.metrics.global_reports, s.metrics.evacuation_alerts,
      s.metrics.false_alarm_evacuations, s.metrics.degraded_entries,
      s.metrics.blocks_published,
      static_cast<unsigned long long>(s.net_stats.packets_sent),
      static_cast<unsigned long long>(s.net_stats.packets_delivered),
      static_cast<unsigned long long>(s.net_stats.packets_dropped),
      static_cast<unsigned long long>(s.net_stats.packets_out_of_range),
      static_cast<unsigned long long>(s.net_stats.bytes_sent));
  return buf;
}

TEST(WorldParallel, StepThreadsByteIdenticalAcross1248) {
  for (const auto& [name, cfg] : golden_scenarios()) {
    SCOPED_TRACE(name);
    std::vector<std::unique_ptr<World>> worlds;
    const int thread_counts[] = {1, 2, 4, 8};
    for (const int threads : thread_counts) {
      ScenarioConfig c = cfg;
      c.step_threads = threads;
      worlds.push_back(std::make_unique<World>(c));
    }
    // Lock-step so a divergence fails at the earliest tick, not at the end.
    for (Tick t = 5'000; t <= cfg.duration_ms; t += 5'000) {
      worlds[0]->run_until(t);
      const std::string reference = fingerprint(worlds[0]->summary());
      for (std::size_t i = 1; i < worlds.size(); ++i) {
        worlds[i]->run_until(t);
        ASSERT_EQ(fingerprint(worlds[i]->summary()), reference)
            << name << " diverged at t=" << t
            << " step_threads=" << thread_counts[i];
      }
    }
    // The summary digest additionally folds the telemetry snapshot (verify-
    // cache hit/miss gauges included) on top of the simulation outcome.
    const std::string digest =
        checkpoint::run_summary_digest(worlds[0]->run());
    for (std::size_t i = 1; i < worlds.size(); ++i) {
      EXPECT_EQ(checkpoint::run_summary_digest(worlds[i]->run()), digest)
          << name << " final digest diverged at step_threads="
          << thread_counts[i];
    }
  }
}

// RSA signatures make verification real work and fill the run's verify
// cache: with step_threads > 1 receivers must still observe exactly the
// hits and misses of the serial run (the digest folds the cache gauges).
TEST(WorldParallel, RsaVerificationByteIdenticalUnderThreads) {
  ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 80, 5);
  cfg.attack = protocol::AttackSetting{"deviation", 1, false, 0, 0};
  cfg.signer = SignerKind::kRsa1024;
  cfg.duration_ms = 60'000;

  ScenarioConfig threaded = cfg;
  threaded.step_threads = 4;

  const RunSummary serial = World(cfg).run();
  const RunSummary parallel = World(threaded).run();
  ASSERT_GT(serial.metrics.blocks_published, 0);  // the wave actually ran
  EXPECT_EQ(fingerprint(parallel), fingerprint(serial));
  EXPECT_EQ(checkpoint::run_summary_digest(parallel),
            checkpoint::run_summary_digest(serial));
}

// Checkpointing is step-boundary state only, so the worker pool must be
// invisible to it: a threaded run saved mid-flight restores (nodes
// re-created in spawn order) and continues bit-exactly.
TEST(WorldParallel, CheckpointRoundTripBitExactUnderThreads) {
  ScenarioConfig cfg = golden(traffic::IntersectionKind::kCross4, 120, 7);
  cfg.step_threads = 4;

  World uninterrupted(cfg);
  uninterrupted.run_until(cfg.duration_ms);

  World original(cfg);
  original.run_until(60'000);
  const Bytes blob = original.checkpoint_save();
  std::string error;
  std::unique_ptr<World> resumed = World::checkpoint_restore(blob, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->checkpoint_save(), blob);  // save/restore/save identity

  resumed->run_until(cfg.duration_ms);
  EXPECT_EQ(checkpoint::run_summary_digest(resumed->summary()),
            checkpoint::run_summary_digest(uninterrupted.summary()));
}

}  // namespace
}  // namespace nwade::sim
