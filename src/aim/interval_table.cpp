#include "aim/interval_table.h"

#include <algorithm>

namespace nwade::aim {

void IntervalTable::insert(const Interval& iv) {
  const auto pos = std::upper_bound(
      intervals_.begin(), intervals_.end(), iv.begin,
      [](Tick begin, const Interval& r) { return begin < r.begin; });
  const std::size_t idx = static_cast<std::size_t>(pos - intervals_.begin());
  intervals_.insert(pos, iv);
  prefix_max_end_.insert(prefix_max_end_.begin() + static_cast<std::ptrdiff_t>(idx),
                         iv.end);
  rebuild_prefix_max(idx);
}

std::optional<Tick> IntervalTable::latest_blocking_end(Tick begin, Tick end) const {
  // Candidates are the prefix with r.begin < end; its end-maximum M blocks
  // iff M > begin (see header).
  const auto pos = std::lower_bound(
      intervals_.begin(), intervals_.end(), end,
      [](const Interval& r, Tick e) { return r.begin < e; });
  const std::size_t count = static_cast<std::size_t>(pos - intervals_.begin());
  if (count == 0) return std::nullopt;
  const Tick max_end = prefix_max_end_[count - 1];
  if (max_end > begin) return max_end;
  return std::nullopt;
}

void IntervalTable::erase_owner(VehicleId id) {
  const auto removed = std::erase_if(
      intervals_, [id](const Interval& r) { return r.owner == id; });
  if (removed == 0) return;
  prefix_max_end_.resize(intervals_.size());
  rebuild_prefix_max(0);
}

void IntervalTable::erase_end_before(Tick t) {
  const auto removed =
      std::erase_if(intervals_, [t](const Interval& r) { return r.end < t; });
  if (removed == 0) return;
  prefix_max_end_.resize(intervals_.size());
  rebuild_prefix_max(0);
}

void IntervalTable::clear() {
  intervals_.clear();
  prefix_max_end_.clear();
}

void IntervalTable::rebuild_prefix_max(std::size_t from) {
  for (std::size_t i = from; i < intervals_.size(); ++i) {
    const Tick prev = i == 0 ? intervals_[i].end : prefix_max_end_[i - 1];
    prefix_max_end_[i] = std::max(prev, intervals_[i].end);
  }
}

}  // namespace nwade::aim
