// Unit coverage for the multi-intersection lattice (sim::Grid,
// docs/GRID.md): boundary-handoff mechanics, outage deferral on the
// reliable lane, gossip blacklist propagation, the nested-thread budget,
// grid checkpoint round-trips (including unknown-section tolerance and
// corrupt-blob rejection), and the rejection of a blacklisted vehicle at
// plan-request time.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/grid.h"
#include "util/crc32.h"

namespace nwade::sim {
namespace {

/// A 1 x cols corridor of cross4 shards.
GridConfig corridor(int cols, double vpm, Duration duration,
                    std::uint64_t seed = 11) {
  GridConfig g;
  g.rows = 1;
  g.cols = cols;
  g.shard.intersection.kind = traffic::IntersectionKind::kCross4;
  g.shard.vehicles_per_minute = vpm;
  g.shard.duration_ms = duration;
  g.shard.attack_time = 10'000;
  g.seed = seed;
  g.exchange_every_ms = 500;
  g.gossip_every_ms = 1'000;
  return g;
}

std::string run_digest(GridConfig cfg) {
  Grid grid(std::move(cfg));
  return Grid::summary_digest(grid.run());
}

TEST(Grid, CorridorHandsVehiclesDownstream) {
  Grid grid(corridor(2, 240, 60'000));
  const GridSummary s = grid.run();
  // A dense corridor must actually exercise the boundary: vehicles exit
  // toward the neighbour, cross the edge, and materialise downstream.
  EXPECT_GT(s.handoffs_sent, 0u);
  EXPECT_GT(s.handoffs_delivered, 0u);
  EXPECT_LE(s.handoffs_delivered, s.handoffs_sent);  // in-flight at the end
  EXPECT_GT(s.retired, 0u);  // lattice-border exits leave the modelled region
  EXPECT_EQ(s.shards.size(), 2u);
  // Identical construction reproduces the run byte for byte.
  EXPECT_EQ(Grid::summary_digest(s), run_digest(corridor(2, 240, 60'000)));
}

TEST(Grid, BoundaryScheduleIndependentOfRunUntilSlicing) {
  // Boundaries live on the absolute exchange lattice: driving the grid in
  // odd 300 ms slices must cross the same boundaries as one big run_until.
  Grid sliced(corridor(2, 120, 30'000));
  for (Tick t = 300; t <= 30'000; t += 300) sliced.run_until(t);
  sliced.run_until(30'000);
  EXPECT_EQ(Grid::summary_digest(sliced.summary()),
            run_digest(corridor(2, 120, 30'000)));
}

TEST(Grid, NestedThreadBudgetKeepsOneLevelOfParallelism) {
  // 8 grid threads x 4 step threads must run 8 workers, not 32: the inner
  // per-shard pools collapse to inline stepping (worker_pool.h policy).
  GridConfig cfg = corridor(2, 60, 10'000);
  cfg.grid_threads = 8;
  cfg.shard.step_threads = 4;
  Grid parallel(cfg);
  EXPECT_EQ(parallel.shard(0, 0).config().step_threads, 1);
  EXPECT_EQ(parallel.shard(0, 1).config().step_threads, 1);
  // A serial grid passes the full inner budget through.
  cfg.grid_threads = 1;
  Grid serial(cfg);
  EXPECT_EQ(serial.shard(0, 0).config().step_threads, 4);
}

TEST(Grid, EdgeOutageDefersHandoffsButNeverDrops) {
  GridConfig cfg = corridor(2, 240, 60'000);
  cfg.edge.outages.push_back(net::EdgeOutage{5'000, 55'000});
  Grid grid(cfg);
  const GridSummary s = grid.run();
  // The reliable lane defers across the dark window instead of dropping:
  // every handoff sent during [5s, 55s) is delayed past the window's end,
  // and the healed link delivers them before the run ends.
  EXPECT_GT(s.handoffs_sent, 0u);
  EXPECT_GT(s.handoffs_deferred, 0u);
  EXPECT_GT(s.handoffs_delivered, 0u);
  // Fault injection is part of the seeded universe: byte-identical reruns.
  EXPECT_EQ(Grid::summary_digest(s), run_digest(cfg));
}

TEST(Grid, HandoffLandingMidVerifyRoundIsDeterministic) {
  // A deviation attacker in shard 0 keeps verify rounds in flight while
  // jittered handoffs land at arbitrary offsets inside them. The digest
  // must not depend on the shard-stepping thread count.
  GridConfig cfg = corridor(2, 120, 60'000);
  cfg.attack_shard = 0;
  cfg.shard.attack = protocol::AttackSetting{"V1", 1, false, 1, 0};
  cfg.edge.jitter_ms = 70;
  const std::string reference = run_digest(cfg);
  cfg.grid_threads = 2;
  EXPECT_EQ(run_digest(cfg), reference);
}

TEST(Grid, GossipSpreadsBlacklistDownstream) {
  // Attacker at the corridor head; the confirmed suspect must propagate
  // shard-to-shard over the lossy gossip lane (cumulative resend), reaching
  // the far end two hops later — before the attacker could drive there.
  GridConfig cfg = corridor(3, 100, 90'000);
  cfg.attack_shard = 0;
  cfg.shard.attack = protocol::AttackSetting{"V1", 1, false, 1, 0};
  Grid grid(cfg);
  const GridSummary s = grid.run();
  ASSERT_EQ(grid.shard(0, 0).malicious_ids().size(), 1u);
  const VehicleId attacker = *grid.shard(0, 0).malicious_ids().begin();
  EXPECT_TRUE(grid.shard(0, 0).im().is_blacklisted(attacker))
      << "upstream IM never confirmed its own deviator";
  EXPECT_TRUE(grid.shard(0, 1).im().is_blacklisted(attacker));
  EXPECT_TRUE(grid.shard(0, 2).im().is_blacklisted(attacker));
  EXPECT_GT(s.gossip_sent, 0u);
  EXPECT_GE(s.gossip_imports, 2u);
}

TEST(Grid, ImportedBlacklistRejectsInjectedVehicle) {
  // World-level half of the downstream-distrust story: an IM that imported
  // a suspect via gossip refuses that vehicle's plan request outright.
  ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 30;
  cfg.duration_ms = 60'000;
  cfg.seed = 9;
  World w(cfg);
  w.run_until(1'000);
  const VehicleId intruder{777'777};
  EXPECT_TRUE(w.import_blacklist(intruder));
  EXPECT_FALSE(w.import_blacklist(intruder));  // idempotent
  EXPECT_TRUE(w.im().is_blacklisted(intruder));
  w.inject_vehicle(intruder, 0, traffic::VehicleTraits{}, 10.0);
  w.run_until(30'000);
  const auto& counters = w.summary().metrics_snapshot.counters;
  const auto it = counters.find("nwade.plan_rejections");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second, 1);
}

TEST(Grid, CheckpointRoundTripContinuesBitIdentical) {
  GridConfig cfg = corridor(2, 120, 60'000);
  cfg.rows = 2;  // 2x2: interior edges in both axes
  cfg.attack_shard = 0;
  cfg.shard.attack = protocol::AttackSetting{"V1", 1, false, 1, 0};
  cfg.edge.jitter_ms = 50;

  Grid original(cfg);
  original.run_until(20'000);  // an exchange boundary (multiple of 500)
  const Bytes blob = original.checkpoint_save();
  original.run_until(60'000);
  const std::string uninterrupted = Grid::summary_digest(original.summary());

  std::string error;
  // The restoring process picks its own grid_threads — a wall-clock knob.
  std::unique_ptr<Grid> restored = Grid::checkpoint_restore(blob, 2, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->now(), 20'000);
  // Save -> restore -> save is byte-identical (no state invented or lost).
  EXPECT_EQ(restored->checkpoint_save(), blob);
  restored->run_until(60'000);
  EXPECT_EQ(Grid::summary_digest(restored->summary()), uninterrupted);
}

TEST(Grid, CheckpointToleratesUnknownSections) {
  GridConfig cfg = corridor(2, 120, 20'000);
  Grid original(cfg);
  original.run_until(10'000);
  const Bytes blob = original.checkpoint_save();
  original.run_until(20'000);
  const std::string uninterrupted = Grid::summary_digest(original.summary());

  // Re-encode the envelope with an extra section a future writer might add;
  // a v1 reader must skip it (after checking its CRC) and continue exactly.
  ByteReader r(blob);
  const std::string schema = r.str();
  const std::uint32_t n = r.u32();
  ByteWriter w;
  w.str(schema);
  w.u32(n + 1);
  for (std::uint32_t i = 0; i < n; ++i) {
    w.str(r.str());
    w.u32(r.u32());
    w.bytes(r.bytes());
  }
  ASSERT_TRUE(r.ok() && r.at_end());
  const Bytes extra = {0xde, 0xad, 0xbe, 0xef};
  w.str("future.extension");
  w.u32(util::crc32(extra));
  w.bytes(extra);

  std::string error;
  std::unique_ptr<Grid> restored =
      Grid::checkpoint_restore(w.take(), 1, &error);
  ASSERT_NE(restored, nullptr) << error;
  restored->run_until(20'000);
  EXPECT_EQ(Grid::summary_digest(restored->summary()), uninterrupted);
}

TEST(Grid, CheckpointRejectsCorruption) {
  GridConfig cfg = corridor(2, 120, 20'000);
  Grid grid(cfg);
  grid.run_until(10'000);
  const Bytes blob = grid.checkpoint_save();

  std::string error;
  EXPECT_EQ(Grid::checkpoint_restore(Bytes{1, 2, 3}, 1, &error), nullptr);
  EXPECT_FALSE(error.empty());

  Bytes truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_EQ(Grid::checkpoint_restore(truncated, 1, &error), nullptr);

  // A single flipped payload byte must be caught (CRC or a parse check).
  Bytes corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_EQ(Grid::checkpoint_restore(corrupt, 1, &error), nullptr);
}

}  // namespace
}  // namespace nwade::sim
