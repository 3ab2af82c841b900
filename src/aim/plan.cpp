#include "aim/plan.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "util/archive.h"

namespace nwade::aim {

double TravelPlan::s_at(Tick t) const {
  if (segments.empty()) return 0;
  if (t <= segments.front().start) return segments.front().s0;
  double s = segments.front().s0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const PlanSegment& seg = segments[i];
    const Tick seg_end = (i + 1 < segments.size()) ? segments[i + 1].start : kTickMax;
    if (t < seg_end) {
      return seg.s0 + seg.v_mps * ticks_to_seconds(t - seg.start);
    }
    s = seg.s0 + seg.v_mps * ticks_to_seconds(seg_end - seg.start);
    (void)s;
  }
  // Past the last segment boundary is handled inside the loop (kTickMax).
  const PlanSegment& last = segments.back();
  return last.s0 + last.v_mps * ticks_to_seconds(t - last.start);
}

double TravelPlan::v_at(Tick t) const {
  if (segments.empty()) return 0;
  if (t < segments.front().start) return 0;
  for (std::size_t i = segments.size(); i-- > 0;) {
    if (t >= segments[i].start) return segments[i].v_mps;
  }
  return segments.front().v_mps;
}

std::optional<Tick> TravelPlan::time_at(double s) const {
  if (segments.empty()) return std::nullopt;
  if (s <= segments.front().s0) return segments.front().start;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const PlanSegment& seg = segments[i];
    const Tick seg_end = (i + 1 < segments.size()) ? segments[i + 1].start : kTickMax;
    const double s_end = (i + 1 < segments.size())
                             ? segments[i + 1].s0
                             : std::numeric_limits<double>::infinity();
    if (s <= s_end + 1e-9) {
      if (seg.v_mps <= 0) {
        if (s <= seg.s0 + 1e-9) return seg.start;
        continue;  // cannot reach s in this segment; maybe a later one starts past it
      }
      const double dt_s = (s - seg.s0) / seg.v_mps;
      const Tick t = seg.start + seconds_to_ticks(dt_s);
      if (t <= seg_end) return t;
    }
  }
  return std::nullopt;
}

traffic::VehicleStatus TravelPlan::expected_status(const traffic::Route& route,
                                                   Tick t) const {
  traffic::VehicleStatus st;
  const double s = s_at(t);
  st.position = route.path.point_at(s);
  st.speed_mps = v_at(t);
  st.heading_rad = route.path.heading_at(s);
  return st;
}

template <class Ar, class Self>
void TravelPlan::io(Ar& ar, Self& p) {
  ar.id(p.vehicle);
  ar.u32(p.route_id);
  ar(p.traits);
  ar(p.status_at_issue);
  constexpr std::size_t kMaxSegments = 1000;  // sanity bound
  ar.seq(p.segments, 24, [](auto& a, auto& seg) {
    a.i64(seg.start);
    a.f64(seg.s0);
    a.f64(seg.v_mps);
  }, kMaxSegments);
  ar.i64(p.issued_at);
  ar.i64(p.core_entry);
  ar.i64(p.core_exit);
  std::uint8_t flags = (p.evacuation ? 1 : 0) | (p.unmanaged ? 2 : 0);
  ar.u8(flags);
  if constexpr (Ar::kReading) {
    p.evacuation = (flags & 1) != 0;
    p.unmanaged = (flags & 2) != 0;
    // s_at()/v_at() subtract starts from sim times; bounding them keeps that
    // arithmetic exact and overflow-free.
    constexpr Tick kMaxStart = Tick{1} << 53;
    Tick prev = 0;
    for (const PlanSegment& seg : p.segments) {
      if (seg.start < prev || seg.start >= kMaxStart) return ar.fail();
      prev = seg.start;
    }
  }
}
template void TravelPlan::io(WriteArchive&, const TravelPlan&);
template void TravelPlan::io(ReadArchive&, TravelPlan&);

Bytes TravelPlan::serialize() const {
  ByteWriter w;
  w.reserve(wire_size());
  save(w, *this);
  return w.take();
}

std::optional<TravelPlan> TravelPlan::deserialize(const Bytes& data) {
  ByteReader r(data);
  TravelPlan p;
  if (!load(r, p) || !r.at_end()) return std::nullopt;
  return p;
}

bool TravelPlan::operator==(const TravelPlan& o) const {
  return vehicle == o.vehicle && route_id == o.route_id && traits == o.traits &&
         segments == o.segments && issued_at == o.issued_at &&
         core_entry == o.core_entry && core_exit == o.core_exit &&
         evacuation == o.evacuation && unmanaged == o.unmanaged;
}

namespace {

/// Occupancy of [s_begin, s_end] by a plan, or nullopt if never entered.
std::optional<std::pair<Tick, Tick>> occupancy(const TravelPlan& plan, double s_begin,
                                               double s_end) {
  const auto t_in = plan.time_at(s_begin);
  if (!t_in) return std::nullopt;
  auto t_out = plan.time_at(s_end);
  if (!t_out) t_out = kTickMax;  // enters but never leaves (stopped inside)
  return std::make_pair(*t_in, *t_out);
}

bool overlaps(Tick a0, Tick a1, Tick b0, Tick b1) { return a0 < b1 && b0 < a1; }

}  // namespace

std::vector<PlanConflict> find_plan_conflicts(
    const traffic::Intersection& intersection,
    const std::vector<const TravelPlan*>& plans, Duration margin_ms) {
  std::vector<PlanConflict> conflicts;

  // Bucket occupancies by resource (zone id, or per-route core interval for
  // same-route headway) so the check is near-linear in plans instead of
  // all-pairs over all zones: this runs on every vehicle for every block.
  struct Occ {
    const TravelPlan* plan;
    Tick in, out;
  };
  std::unordered_map<int, std::vector<Occ>> zone_occs;       // zone id -> occs
  std::unordered_map<int, std::vector<Occ>> core_occs;       // route id -> occs

  for (const TravelPlan* p : plans) {
    const traffic::Route& route = intersection.route(p->route_id);
    if (const auto core = occupancy(*p, route.core_begin, route.core_end)) {
      core_occs[p->route_id].push_back(
          Occ{p, core->first - margin_ms, core->second + margin_ms});
    }
    for (const traffic::ZoneRef& ref : intersection.zones_for(p->route_id)) {
      if (const auto occ = occupancy(*p, ref.begin, ref.end)) {
        zone_occs[ref.zone_id].push_back(
            Occ{p, occ->first - margin_ms, occ->second + margin_ms});
      }
    }
  }

  const auto sweep = [&conflicts](std::vector<Occ>& bucket, int zone_id,
                                  bool same_route_only) {
    std::sort(bucket.begin(), bucket.end(),
              [](const Occ& a, const Occ& b) { return a.in < b.in; });
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      for (std::size_t j = i + 1; j < bucket.size(); ++j) {
        if (bucket[j].in >= bucket[i].out) break;  // sorted: no later overlaps
        const Occ& a = bucket[i];
        const Occ& b = bucket[j];
        if (a.plan->vehicle == b.plan->vehicle) continue;
        // In zone buckets, same-route pairs are following traffic and are
        // covered by the core-interval (headway) buckets instead.
        if (!same_route_only && a.plan->route_id == b.plan->route_id) continue;
        if (overlaps(a.in, a.out, b.in, b.out)) {
          conflicts.push_back(PlanConflict{a.plan->vehicle, b.plan->vehicle, zone_id,
                                           std::max(a.in, b.in),
                                           std::min(a.out, b.out)});
        }
      }
    }
  };

  for (auto& [route_id, bucket] : core_occs) sweep(bucket, -1, true);
  for (auto& [zone_id, bucket] : zone_occs) sweep(bucket, zone_id, false);
  return conflicts;
}

PlanOccupancy plan_occupancy(const traffic::Intersection& intersection,
                             const TravelPlan& plan, Duration margin_ms) {
  PlanOccupancy occ;
  occ.route_id = plan.route_id;
  const traffic::Route& route = intersection.route(plan.route_id);
  if (const auto core = occupancy(plan, route.core_begin, route.core_end)) {
    occ.core = {core->first - margin_ms, core->second + margin_ms};
  }
  for (const traffic::ZoneRef& ref : intersection.zones_for(plan.route_id)) {
    if (const auto zone = occupancy(plan, ref.begin, ref.end)) {
      occ.zones.emplace_back(
          ref.zone_id,
          std::make_pair(zone->first - margin_ms, zone->second + margin_ms));
    }
  }
  return occ;
}

bool occupancies_conflict(const PlanOccupancy& a, const PlanOccupancy& b) {
  if (a.route_id == b.route_id) {
    // Same route: following traffic — only the core (headway) interval is
    // checked; find_plan_conflicts skips same-route pairs in zone buckets.
    return a.core && b.core &&
           overlaps(a.core->first, a.core->second, b.core->first,
                    b.core->second);
  }
  for (const auto& [zone_a, iv_a] : a.zones) {
    for (const auto& [zone_b, iv_b] : b.zones) {
      if (zone_a != zone_b) continue;
      if (overlaps(iv_a.first, iv_a.second, iv_b.first, iv_b.second)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace nwade::aim
