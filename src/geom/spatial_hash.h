// Uniform-grid spatial index over 2-D points.
//
// The simulator's ground-truth min-gap audit, legacy car-following lookup,
// sensor queries, and the network's broadcast range scan were all all-pairs
// sweeps: O(V^2) per step once traffic gets dense. This grid buckets points
// into square cells so a radius query touches only the cells the disc
// overlaps.
//
// Equivalence contract (what keeps indexed sweeps equal to all-pairs scans):
// the index never answers a geometric predicate itself. `query_candidates`
// returns a *superset* of the exact in-radius set (every point whose cell
// intersects the disc); callers re-apply their exact floating-point
// predicate, so an indexed sweep makes bit-identical decisions to a
// brute-force scan over every point (the unit tests and
// tests/sim/world_equivalence_test.cpp hold both to all-pairs oracles).
// Candidates come back in ascending insertion-index order, which lets
// callers that iterate id-sorted containers preserve their exact iteration
// order.
//
// Rebuild-per-snapshot design: points are immutable once inserted; callers
// clear() and re-insert when positions move (an O(V) rebuild is the same
// order as one all-pairs row, so rebuilding even once per query still wins).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/vec2.h"

namespace nwade::geom {

class SpatialHash {
 public:
  /// `cell_size` must be positive.
  explicit SpatialHash(double cell_size = 8.0);

  double cell_size() const { return cell_size_; }
  /// Changing the cell size clears the index (buckets are size-dependent).
  void set_cell_size(double cell_size);

  /// Empties the index but retains allocated capacity (map nodes and
  /// per-cell vectors), so a clear+reinsert rebuild over a stable working
  /// set of cells is allocation-free in the steady state.
  void clear();
  void reserve(std::size_t points);

  /// Stores a point; returns its dense insertion index (0, 1, 2, ...).
  std::size_t insert(Vec2 pos);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  Vec2 position(std::size_t index) const { return points_[index]; }

  /// Appends the indices of every point whose cell intersects the closed
  /// disc (center, radius) to `out`, in ascending index order. Guaranteed a
  /// superset of all stored points within `radius` of `center`; callers
  /// apply their own exact distance predicate. `radius` < 0 yields nothing.
  void query_candidates(Vec2 center, double radius,
                        std::vector<std::size_t>& out) const;

 private:
  static std::uint64_t pack(std::int64_t cx, std::int64_t cy) {
    // Bias into unsigned halves; world coordinates are metres around the
    // origin, so 32-bit cell coordinates are unreachable in practice.
    return (static_cast<std::uint64_t>(cx + 0x80000000LL) << 32) |
           static_cast<std::uint64_t>(cy + 0x80000000LL);
  }
  std::int64_t cell_coord(double v) const;

  double cell_size_;
  std::vector<Vec2> points_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> cells_;
  /// Cells currently holding >= 1 point; clear() retains empty map nodes
  /// for allocation-free rebuilds, so cells_.size() over-counts.
  std::size_t populated_cells_{0};
};

}  // namespace nwade::geom
