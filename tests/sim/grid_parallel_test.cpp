// Grid lockstep determinism lock (ctest label: chaos, so the TSan tree vets
// the shard fan-out): `GridConfig::grid_threads` may only change the wall
// clock, never a result byte. Phase A fans the shards over the pool, but
// phases B/C (exit drain, gossip, delivery) run serially in fixed orders,
// so a 4x4 lattice with a deviation attacker, cross-IM gossip, edge jitter,
// and an outage window must reproduce the single-threaded summary digest at
// every thread count.
//
// Also the grid-level neighborhood-watch story (ISSUE acceptance): an
// attacker flagged at its origin shard is distrusted at a shard it has
// never visited — and when it shows up there, its plan request is refused.
#include <gtest/gtest.h>

#include <string>

#include "sim/grid.h"

namespace nwade::sim {
namespace {

GridConfig lattice(int dim, int grid_threads) {
  GridConfig g;
  g.rows = dim;
  g.cols = dim;
  g.shard.intersection.kind = traffic::IntersectionKind::kCross4;
  g.shard.vehicles_per_minute = 60;
  g.shard.duration_ms = 30'000;
  g.shard.attack_time = 10'000;
  g.seed = 21;
  g.exchange_every_ms = 500;
  g.gossip_every_ms = 1'000;
  g.grid_threads = grid_threads;
  // One deviation attacker at the origin shard; everything downstream only
  // hears about it via gossip.
  g.attack_shard = 0;
  g.shard.attack = protocol::AttackSetting{"V1", 1, false, 1, 0};
  // Imperfect edges so the determinism claim covers the fault machinery:
  // jittered latency, an outage window, and gossip burst loss.
  g.edge.jitter_ms = 40;
  g.edge.ge_p_good_to_bad = 0.05;
  g.edge.outages.push_back(net::EdgeOutage{12'000, 15'000});
  return g;
}

TEST(GridParallel, FourByFourDigestByteIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    Grid grid(lattice(4, threads));
    const GridSummary s = grid.run();
    const std::string digest = Grid::summary_digest(s);
    if (threads == 1) {
      reference = digest;
      // The scenario must actually exercise the exchange machinery, or the
      // digest sweep proves nothing about it.
      EXPECT_GT(s.handoffs_delivered, 0u);
      EXPECT_GT(s.gossip_imports, 0u);
    } else {
      EXPECT_EQ(digest, reference) << "grid_threads=" << threads;
    }
  }
}

// Every shard memoizes signature verdicts in its own World's cache, which
// only the pool thread stepping that shard touches: an RSA lattice on four
// threads reproduces the serial digest, and the TSan tree sees no two
// threads share a cache.
TEST(GridParallel, RsaLatticeDigestByteIdenticalAcrossThreadCounts) {
  std::string reference;
  for (const int threads : {1, 4}) {
    GridConfig cfg = lattice(2, threads);
    cfg.shard.signer = SignerKind::kRsa1024;
    cfg.shard.duration_ms = 20'000;
    Grid grid(cfg);
    const std::string digest = Grid::summary_digest(grid.run());
    if (threads == 1) {
      reference = digest;
      for (int r = 0; r < grid.rows(); ++r) {
        for (int c = 0; c < grid.cols(); ++c) {
          const auto gauges = grid.shard(r, c).summary().metrics_snapshot.gauges;
          const auto hits = gauges.find("crypto.sig_cache.hits");
          ASSERT_NE(hits, gauges.end());
          EXPECT_GT(hits->second, 0) << "shard " << r << "," << c;
        }
      }
    } else {
      EXPECT_EQ(digest, reference) << "grid_threads=" << threads;
    }
  }
}

TEST(GridParallel, MergedMetricsByteIdenticalAcrossThreadCountsAndEqualsFold) {
  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    GridConfig cfg = lattice(2, threads);
    cfg.shard.duration_ms = 20'000;
    Grid grid(cfg);
    grid.run_until(cfg.shard.duration_ms);
    const std::string merged_json = grid.merged_metrics().json();
    if (threads == 1) {
      reference = merged_json;
      ASSERT_FALSE(reference.empty());
      // The lattice-wide snapshot must be exactly the row-major fold of the
      // per-shard summary snapshots — same merge the campaign engine uses.
      util::telemetry::MetricsSnapshot fold;
      for (int r = 0; r < grid.rows(); ++r) {
        for (int c = 0; c < grid.cols(); ++c) {
          fold.merge(grid.shard(r, c).summary().metrics_snapshot);
        }
      }
      EXPECT_EQ(fold.json(), merged_json);
      // It must actually span shards: the folded step counter is all four
      // shards' steps, not one shard's.
      const auto it = fold.counters.find("sim.steps");
      ASSERT_NE(it, fold.counters.end());
      EXPECT_EQ(it->second, 4 * (20'000 / cfg.shard.step_ms));
    } else {
      EXPECT_EQ(merged_json, reference) << "grid_threads=" << threads;
    }
  }
}

TEST(GridParallel, UpstreamFlaggedAttackerRejectedAtDownstreamIm) {
  GridConfig cfg = lattice(2, 2);
  cfg.shard.duration_ms = 90'000;
  // max_hops 1: the attacker can cross at most one boundary, so it can
  // never physically reach the far corner (two hops away) on its own —
  // only its reputation can, via two gossip hops.
  cfg.max_hops = 1;
  Grid grid(cfg);
  grid.run_until(60'000);

  ASSERT_EQ(grid.shard(0, 0).malicious_ids().size(), 1u);
  const VehicleId attacker = *grid.shard(0, 0).malicious_ids().begin();
  ASSERT_TRUE(grid.shard(0, 0).im().is_blacklisted(attacker))
      << "origin IM never confirmed its own deviator";
  World& far = grid.shard(1, 1);
  ASSERT_TRUE(far.im().is_blacklisted(attacker))
      << "gossip never reached the far corner";
  ASSERT_EQ(far.vehicle(attacker), nullptr);

  // The flagged vehicle now shows up at the far corner: its very first plan
  // request is refused on identity alone — it never got to misbehave there.
  far.inject_vehicle(attacker, 0, traffic::VehicleTraits{}, 10.0);
  grid.run_until(75'000);
  const auto& counters = far.summary().metrics_snapshot.counters;
  const auto it = counters.find("nwade.plan_rejections");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second, 1);
}

}  // namespace
}  // namespace nwade::sim
