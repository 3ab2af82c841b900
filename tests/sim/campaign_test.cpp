// Campaign-engine contract tests. Built as a chaos test so the TSan build
// (SANITIZE=thread, ctest -L chaos) executes the real multi-threaded fan-out
// — the determinism assertions here are also the data-race payload.
#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace nwade::sim {
namespace {

CampaignConfig small_matrix() {
  CampaignConfig cfg;
  cfg.kinds = {traffic::IntersectionKind::kCross4,
               traffic::IntersectionKind::kRoundabout3};
  cfg.attacks = {"benign", "V1"};
  cfg.densities_vpm = {60.0, 90.0};
  cfg.rounds = 2;
  cfg.base_seed = 11;
  cfg.duration_ms = 10'000;
  return cfg;
}

TEST(Campaign, ExpansionOrderAndSeeds) {
  CampaignConfig cfg = small_matrix();
  const auto cells = expand_cells(cfg);
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u);

  // kinds (outer) -> attacks -> densities -> rounds (inner); seeds are
  // base_seed + round so rounds differ only by seed.
  EXPECT_EQ(cells[0].kind, traffic::IntersectionKind::kCross4);
  EXPECT_EQ(cells[0].attack, "benign");
  EXPECT_EQ(cells[0].vpm, 60.0);
  EXPECT_EQ(cells[0].round, 0);
  EXPECT_EQ(cells[0].seed, 11u);
  EXPECT_EQ(cells[1].round, 1);
  EXPECT_EQ(cells[1].seed, 12u);
  EXPECT_EQ(cells[2].vpm, 90.0);
  EXPECT_EQ(cells[4].attack, "V1");
  EXPECT_EQ(cells[8].kind, traffic::IntersectionKind::kRoundabout3);

  // The cell's axes land on the scenario; the base carries everything else.
  cfg.base.legacy_fraction = 0.25;
  const ScenarioConfig sc = cell_scenario(cfg, cells[5]);
  EXPECT_EQ(sc.intersection.kind, cells[5].kind);
  EXPECT_EQ(sc.vehicles_per_minute, cells[5].vpm);
  EXPECT_EQ(sc.seed, cells[5].seed);
  EXPECT_EQ(sc.duration_ms, cfg.duration_ms);
  EXPECT_EQ(sc.attack.name, "V1");
  EXPECT_EQ(sc.legacy_fraction, 0.25);
}

TEST(Campaign, PoolSizeNeverChangesAResultByte) {
  CampaignConfig cfg = small_matrix();
  cfg.threads = 1;
  const auto reference_results = run_campaign(cfg);
  ASSERT_EQ(reference_results.size(), expand_cells(cfg).size());
  const std::string reference = campaign_results_json(cfg, reference_results);
  EXPECT_FALSE(reference.empty());

  for (const int threads : {2, 4, 8}) {
    cfg.threads = threads;
    const std::string got = campaign_results_json(cfg, run_campaign(cfg));
    EXPECT_EQ(got, reference)
        << "pool size " << threads << " changed the aggregated results";
  }
}

TEST(Campaign, AggregateGroupsRoundsPerMatrixPoint) {
  CampaignConfig cfg = small_matrix();
  cfg.threads = 4;
  const auto results = run_campaign(cfg);
  const auto aggs = aggregate(cfg, results);
  ASSERT_EQ(aggs.size(), results.size() / static_cast<std::size_t>(cfg.rounds));
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    EXPECT_EQ(aggs[i].rounds, cfg.rounds);
    // Aggregate i covers results [i*rounds, (i+1)*rounds): same coordinates.
    const auto& first = results[i * static_cast<std::size_t>(cfg.rounds)];
    EXPECT_EQ(aggs[i].kind, first.cell.kind);
    EXPECT_EQ(aggs[i].attack, first.cell.attack);
    EXPECT_EQ(aggs[i].vpm, first.cell.vpm);
  }
}

// The rate counts only rounds whose deviator went off-plan. A V1 point whose
// attack time lies past the run has none, so it reports no rate (-1), not a
// rate of 0 that would read as every round missing the attack.
TEST(Campaign, DetectionRateWithoutAViolationReadsMinusOne) {
  CampaignConfig cfg;
  cfg.attacks = {"V1"};
  cfg.rounds = 2;
  cfg.duration_ms = 10'000;
  cfg.base.attack_time = 20'000;
  const auto results = run_campaign(cfg);
  for (const CellResult& r : results) {
    ASSERT_FALSE(r.summary.metrics.violation_start.has_value());
  }
  const auto aggs = aggregate(cfg, results);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].detection_rate, -1.0);
  EXPECT_EQ(aggs[0].mean_detection_ms, -1.0);
}

// Each RSA cell memoizes signature verdicts in its own World's cache, which
// only the pool thread running that cell touches: the pool size cannot
// change a result byte, and the TSan tree sees no two threads share a cache.
TEST(Campaign, RsaResultsByteIdenticalAcrossPoolSizes) {
  CampaignConfig cfg;
  cfg.attacks = {"benign", "V1"};
  cfg.densities_vpm = {60.0};
  cfg.rounds = 2;
  cfg.base_seed = 3;
  cfg.duration_ms = 10'000;
  cfg.base.signer = SignerKind::kRsa1024;
  cfg.threads = 1;
  const auto serial = run_campaign(cfg);
  for (const CellResult& r : serial) {
    const auto& gauges = r.summary.metrics_snapshot.gauges;
    const auto hits = gauges.find("crypto.sig_cache.hits");
    ASSERT_NE(hits, gauges.end());
    EXPECT_GT(hits->second, 0) << "cell " << r.cell.attack << " round "
                               << r.cell.round << " never hit its cache";
  }
  const std::string reference = campaign_results_json(cfg, serial);

  cfg.threads = 4;
  EXPECT_EQ(campaign_results_json(cfg, run_campaign(cfg)), reference);
}

}  // namespace
}  // namespace nwade::sim
