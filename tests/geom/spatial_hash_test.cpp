// SpatialHash contract tests: every answer is checked against an all-pairs
// brute-force oracle, including the superset guarantee, ascending candidate
// order, and the exactly-once pair count of the gap audit's sweep.
#include "geom/spatial_hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.h"

namespace nwade::geom {
namespace {

std::vector<Vec2> random_points(std::uint64_t seed, int n, double extent) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(Vec2{rng.uniform(-extent, extent), rng.uniform(-extent, extent)});
  }
  return pts;
}

TEST(SpatialHash, QueryIsSupersetOfBruteForceAndAscending) {
  for (const double cell : {2.0, 8.0, 64.0}) {
    SpatialHash grid(cell);
    const auto pts = random_points(/*seed=*/42, /*n=*/300, /*extent=*/250.0);
    for (const Vec2& p : pts) grid.insert(p);

    Rng rng(7);
    std::vector<std::size_t> candidates;
    for (int q = 0; q < 50; ++q) {
      const Vec2 center{rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)};
      const double radius = rng.uniform(0.5, 120.0);
      candidates.clear();
      grid.query_candidates(center, radius, candidates);

      ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
      ASSERT_TRUE(std::adjacent_find(candidates.begin(), candidates.end()) ==
                  candidates.end())
          << "duplicate candidate";

      const std::set<std::size_t> candidate_set(candidates.begin(),
                                                candidates.end());
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].distance_to(center) <= radius) {
          EXPECT_TRUE(candidate_set.contains(i))
              << "in-radius point " << i << " missing (cell " << cell
              << ", radius " << radius << ")";
        }
      }
    }
  }
}

TEST(SpatialHash, QueryEdgeCases) {
  SpatialHash grid(8.0);
  std::vector<std::size_t> out;
  grid.query_candidates(Vec2{0, 0}, 10.0, out);
  EXPECT_TRUE(out.empty()) << "empty grid yields no candidates";

  grid.insert(Vec2{1.0, 1.0});
  out.clear();
  grid.query_candidates(Vec2{0, 0}, -1.0, out);
  EXPECT_TRUE(out.empty()) << "negative radius yields no candidates";

  out.clear();
  grid.query_candidates(Vec2{0, 0}, 0.0, out);
  // Radius 0 still visits the center's cell: superset, not exact.
  EXPECT_EQ(out.size(), 1u);

  // A giant radius returns everything exactly once, ascending.
  grid.insert(Vec2{-50.0, 30.0});
  grid.insert(Vec2{200.0, -120.0});
  out.clear();
  grid.query_candidates(Vec2{0, 0}, 1e6, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SpatialHash, QueryPairSweepCountsBruteForcePairsOnce) {
  // The pair sweep of the ground-truth gap audit (World::step_gap_audit):
  // query a disc of the pairing radius around every point i and keep the
  // partners j > i that pass the exact distance predicate. Against the
  // all-pairs scan, every close pair is found, and found exactly once.
  constexpr double kRadius = 2.0;
  for (const double cell : {1.5, 2.0, 10.0}) {
    SpatialHash grid(cell);
    // Dense enough that many pairs share cells (duplicates would show).
    const auto pts = random_points(/*seed=*/9, /*n=*/250, /*extent=*/30.0);
    for (const Vec2& p : pts) grid.insert(p);

    std::set<std::pair<std::size_t, std::size_t>> found;
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      candidates.clear();
      grid.query_candidates(pts[i], kRadius, candidates);
      for (const std::size_t j : candidates) {
        if (j <= i || pts[i].distance_to(pts[j]) >= kRadius) continue;
        ASSERT_TRUE(found.insert({i, j}).second)
            << "pair (" << i << "," << j << ") counted twice";
      }
    }

    std::size_t brute_force = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t j = i + 1; j < pts.size(); ++j) {
        if (pts[i].distance_to(pts[j]) >= kRadius) continue;
        ++brute_force;
        EXPECT_TRUE(found.contains({i, j}))
            << "close pair (" << i << "," << j << ") missed at cell " << cell;
      }
    }
    EXPECT_EQ(found.size(), brute_force) << "cell " << cell;
  }
}

TEST(SpatialHash, ClearAndCellSizeReset) {
  SpatialHash grid(4.0);
  grid.insert(Vec2{1, 1});
  grid.insert(Vec2{2, 2});
  EXPECT_EQ(grid.size(), 2u);
  grid.clear();
  EXPECT_TRUE(grid.empty());
  std::vector<std::size_t> out;
  grid.query_candidates(Vec2{1, 1}, 100.0, out);
  EXPECT_TRUE(out.empty());

  grid.insert(Vec2{3, 3});
  grid.set_cell_size(16.0);  // clears: buckets are size-dependent
  EXPECT_TRUE(grid.empty());
  EXPECT_EQ(grid.cell_size(), 16.0);
}

}  // namespace
}  // namespace nwade::geom
