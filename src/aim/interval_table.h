// Sorted interval reservation table with an indexed overlap query.
//
// The scheduler's feasibility loop asks one question per conflict resource:
// "among reservations overlapping [begin, end), what is the latest end?"
// (the answer drives how far a candidate core entry must be pushed). A flat
// vector answers that in O(n) per probe, and the probe count grows with both
// demand and run length — the classic quadratic creep of reservation AIM.
//
// This table keeps intervals sorted by begin with a parallel running maximum
// of ends, making the query one binary search: exactly the intervals with
// begin < end_q are overlap candidates (a sorted prefix), and M, the prefix
// maximum of their ends, decides the answer outright. If M > begin_q the
// interval achieving M overlaps the query itself, and no overlapping
// interval can end later — so the answer is M. If M <= begin_q every
// candidate ends at or before the query begins, so nothing overlaps. Either
// way the sweep collapses to O(log n), with no false positives to confirm.
#pragma once

#include <optional>
#include <vector>

#include "util/bytes.h"
#include "util/types.h"

namespace nwade::aim {

class IntervalTable {
 public:
  struct Interval {
    Tick begin{0}, end{0};
    VehicleId owner{};
  };

  /// Binary-search insertion keeping begin-order; O(n - pos) tail shift.
  void insert(const Interval& iv);

  /// Latest `end` among intervals strictly overlapping [begin, end)
  /// (overlap test: r.begin < end && begin < r.end, matching the
  /// scheduler's historical strict-inequality sweep). nullopt = no overlap.
  std::optional<Tick> latest_blocking_end(Tick begin, Tick end) const;

  /// Drops every interval owned by `id`.
  void erase_owner(VehicleId id);

  /// Compaction: drops every interval with end < t (expired reservations).
  void erase_end_before(Tick t);

  void clear();

  std::size_t size() const { return intervals_.size(); }
  bool empty() const { return intervals_.empty(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Serializes the interval list in stored (begin-sorted, insertion-stable)
  /// order; restore reproduces the exact vector and rebuilds the prefix
  /// maximum. Returns false on malformed input.
  void checkpoint_save(ByteWriter& w) const;
  bool checkpoint_restore(ByteReader& r);

 private:
  /// Recomputes prefix_max_end_[from..] after a mutation.
  void rebuild_prefix_max(std::size_t from);

  std::vector<Interval> intervals_;  ///< sorted by begin (insertion-stable)
  /// prefix_max_end_[i] = max(intervals_[0..i].end).
  std::vector<Tick> prefix_max_end_;
};

}  // namespace nwade::aim
