// IntervalTable property test: latest_blocking_end (the indexed prefix-max
// query) must equal a linear sweep over every stored interval — the
// scheduler's historical O(n) scan, kept here as the oracle — after any
// sequence of insert, erase_owner, erase_end_before and checkpoint
// round-trips. The per-layout cases draw intervals from each layout's real
// reservation stream (a dense arrival stream through the ReservationScheduler,
// mirrored table by table, the IM's maintenance ops interleaved); the random
// case packs adversarial intervals into a narrow tick range. The scheduler as
// a whole is pinned by the trace_golden digests, which were recorded on the
// linear-scan scheduler.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "aim/interval_table.h"
#include "aim/scheduler.h"
#include "traffic/arrivals.h"
#include "util/archive.h"
#include "util/rng.h"

namespace nwade::aim {
namespace {

using traffic::ArrivalGenerator;
using traffic::Intersection;
using traffic::IntersectionConfig;
using traffic::IntersectionKind;

/// The oracle: latest end among intervals strictly overlapping [begin, end).
std::optional<Tick> linear_sweep(const IntervalTable& table, Tick begin,
                                 Tick end) {
  std::optional<Tick> max_end;
  for (const IntervalTable::Interval& r : table.intervals()) {
    if (begin < r.end && r.begin < end) {
      if (!max_end || r.end > *max_end) max_end = r.end;
    }
  }
  return max_end;
}

void expect_query_matches(const IntervalTable& table, Tick begin, Tick end) {
  ASSERT_EQ(table.latest_blocking_end(begin, end),
            linear_sweep(table, begin, end))
      << "query [" << begin << ", " << end << ") over " << table.size()
      << " intervals";
}

/// Saves `table` and restores the blob into a fresh table, which must
/// re-save the same bytes (the wire form lists every interval in order).
IntervalTable round_trip(const IntervalTable& table) {
  const Bytes blob = to_bytes(table);
  ByteReader r(blob);
  IntervalTable restored;
  EXPECT_TRUE(load(r, restored) && r.at_end());
  EXPECT_EQ(to_bytes(restored), blob);
  return restored;
}

/// One reservation table per scheduler resource (route cores, conflict
/// zones), kept in step with the scheduler's own by replaying its commits.
struct MirrorTables {
  explicit MirrorTables(const Intersection& ix)
      : cores(ix.routes().size()), zones(ix.zones().size()) {}

  template <typename Fn>
  void for_each_table(Fn&& fn) {
    for (IntervalTable& t : cores) fn(t);
    for (IntervalTable& t : zones) fn(t);
  }

  std::size_t zone_reservations() const {
    std::size_t n = 0;
    for (const IntervalTable& t : zones) n += t.size();
    return n;
  }

  std::vector<IntervalTable> cores;
  std::vector<IntervalTable> zones;
};

/// The scheduler's padded occupancy of [s_begin, s_end) along a plan.
std::optional<std::pair<Tick, Tick>> padded_occupancy(const TravelPlan& plan,
                                                      double s_begin,
                                                      double s_end,
                                                      Duration margin) {
  const auto t_in = plan.time_at(s_begin);
  if (!t_in) return std::nullopt;
  const auto t_out = plan.time_at(s_end);
  const Tick out = t_out ? *t_out : kTickMax - margin;
  return std::make_pair(*t_in - margin, out + margin);
}

/// Queries every occupancy of a freshly issued plan against the mirror (the
/// indexed answer must equal the oracle's, and the oracle must find the slot
/// free, as the scheduler claimed), then commits it.
void check_and_commit(const Intersection& ix, const SchedulerConfig& cfg,
                      const TravelPlan& plan, MirrorTables& mirror) {
  const traffic::Route& route = ix.route(plan.route_id);
  const auto visit = [&](IntervalTable& table, double s_begin, double s_end) {
    const auto occ = padded_occupancy(plan, s_begin, s_end, cfg.margin_ms);
    if (!occ) return;
    expect_query_matches(table, occ->first, occ->second);
    EXPECT_EQ(linear_sweep(table, occ->first, occ->second), std::nullopt)
        << "vehicle " << plan.vehicle.value << " was scheduled into a "
        << "reservation the linear sweep sees as blocking";
    table.insert({occ->first, occ->second, plan.vehicle});
  };
  visit(mirror.cores[static_cast<std::size_t>(plan.route_id)],
        route.core_begin, route.core_end);
  for (const traffic::ZoneRef& ref : ix.zones_for(plan.route_id)) {
    visit(mirror.zones[static_cast<std::size_t>(ref.zone_id)], ref.begin,
          ref.end);
  }
}

void run_layout_stream(IntersectionKind kind, double vpm, Duration duration_ms,
                       std::uint64_t seed) {
  IntersectionConfig ix_cfg;
  ix_cfg.kind = kind;
  const Intersection ix = Intersection::build(ix_cfg);
  const SchedulerConfig cfg;
  ReservationScheduler scheduler(ix, cfg);
  MirrorTables mirror(ix);

  ArrivalGenerator gen(ix, vpm, Rng(seed));
  const auto arrivals = gen.generate(duration_ms);
  ASSERT_FALSE(arrivals.empty());
  Rng rng(seed ^ 0x71a3ULL);

  std::vector<std::pair<VehicleId, int>> scheduled;  // (vehicle, route)
  std::uint64_t next_id = 1;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& a = arrivals[i];
    const VehicleId id{next_id++};
    const TravelPlan plan =
        scheduler.schedule(id, a.route_id, a.traits, a.time, a.initial_speed_mps);
    check_and_commit(ix, cfg, plan, mirror);
    scheduled.emplace_back(id, a.route_id);

    // Random windows around the stream's present, on every table.
    mirror.for_each_table([&](const IntervalTable& table) {
      const Tick begin = a.time + rng.uniform_int(-20'000, 40'000);
      expect_query_matches(table, begin, begin + rng.uniform_int(1, 8'000));
    });

    // The IM's maintenance ops, so erase and compaction are covered too.
    if (i % 17 == 16) {
      const VehicleId victim = scheduled[i / 2].first;
      scheduler.release_vehicle(victim);
      mirror.for_each_table([&](IntervalTable& t) { t.erase_owner(victim); });
    }
    if (i % 29 == 28) {
      const Tick horizon = a.time - 60'000;
      scheduler.release_before(horizon);
      mirror.for_each_table([&](IntervalTable& t) { t.erase_end_before(horizon); });
    }
    if (i % 23 == 22) {
      const auto& [vid, route_id] = scheduled[i / 3];
      const TravelPlan re = scheduler.reschedule(
          vid, route_id, arrivals[i / 3].traits, a.time + 500, 5.0);
      // s_start = 5 m lies before every core, so the replan is fitted.
      check_and_commit(ix, cfg, re, mirror);
    }
    if (i % 31 == 30) {
      mirror.for_each_table([&](IntervalTable& t) { t = round_trip(t); });
    }
    ASSERT_EQ(scheduler.reservation_count(), mirror.zone_reservations())
        << "mirror fell out of step with the scheduler at arrival " << i;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerEquivalence, DenseCross4) {
  run_layout_stream(IntersectionKind::kCross4, 120, 5 * 60'000, 11);
}

TEST(SchedulerEquivalence, DenseRoundabout3) {
  run_layout_stream(IntersectionKind::kRoundabout3, 120, 3 * 60'000, 22);
}

TEST(SchedulerEquivalence, Irregular5) {
  run_layout_stream(IntersectionKind::kIrregular5, 90, 3 * 60'000, 33);
}

TEST(SchedulerEquivalence, Ddi4) {
  run_layout_stream(IntersectionKind::kDdi4, 100, 3 * 60'000, 44);
}

TEST(IntervalTableProperty, RandomOpsMatchLinearSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    IntervalTable table;
    const Tick span = 200;  // narrow: ties, nesting, duplicates are common
    for (int op = 0; op < 2'000; ++op) {
      const int kind = static_cast<int>(rng.uniform_int(0, 99));
      if (kind < 55) {
        const Tick begin = rng.uniform_int(0, span);
        table.insert({begin, begin + rng.uniform_int(0, 40),
                      VehicleId{static_cast<std::uint64_t>(rng.uniform_int(1, 30))}});
      } else if (kind < 62) {
        table.erase_owner(
            VehicleId{static_cast<std::uint64_t>(rng.uniform_int(1, 30))});
      } else if (kind < 67) {
        table.erase_end_before(rng.uniform_int(0, span / 2));
      } else if (kind < 70) {
        table = round_trip(table);
      } else if (kind < 71) {
        table.clear();
      }
      // Arbitrary windows, empty and inverted ones included.
      for (int q = 0; q < 4; ++q) {
        const Tick begin = rng.uniform_int(-10, span + 50);
        const Tick end = begin + rng.uniform_int(-5, 60);
        expect_query_matches(table, begin, end);
      }
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << ", op " << op;
        return;
      }
    }
  }
}

}  // namespace
}  // namespace nwade::aim
