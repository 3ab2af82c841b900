// Travel plans: the unit of scheduling, signing, and verification.
//
// A travel plan is the paper's tuple T_j = <id_j, char_j, status_j, inst_j>:
// vehicle identity, static characteristics, dynamic status at issue time, and
// the instruction to follow. Instructions are piecewise-constant-speed
// profiles along the vehicle's route, which makes the expected state at any
// time analytically computable — exactly what watchers need for Algorithm 2's
// "calculate the expected status and compare with the detected status".
#pragma once

#include <optional>
#include <vector>

#include "traffic/intersection.h"
#include "traffic/types.h"
#include "util/bytes.h"
#include "util/types.h"

namespace nwade::aim {

/// From `start`, the vehicle is at arc position `s0` moving at `v_mps`,
/// until the next segment takes over.
struct PlanSegment {
  Tick start{0};
  double s0{0};
  double v_mps{0};

  bool operator==(const PlanSegment&) const = default;
};

/// A complete travel plan for one vehicle crossing the intersection.
struct TravelPlan {
  VehicleId vehicle;
  int route_id{0};
  traffic::VehicleTraits traits;
  traffic::VehicleStatus status_at_issue;
  std::vector<PlanSegment> segments;

  Tick issued_at{0};
  Tick core_entry{0};  ///< when the vehicle reaches route.core_begin
  Tick core_exit{0};   ///< when the vehicle leaves route.core_end
  bool evacuation{false};  ///< true for plans issued during an evacuation
  /// True for *virtual* plans the IM synthesizes for legacy vehicles it can
  /// only observe (mixed-traffic extension, the paper's future work): a
  /// best-effort trajectory prediction used to reserve conflict zones, not a
  /// commitment the vehicle agreed to follow.
  bool unmanaged{false};

  /// Arc-length position along the route at time t (clamped to >= first
  /// segment position; advances at the last segment's speed after its start).
  double s_at(Tick t) const;

  /// Speed at time t.
  double v_at(Tick t) const;

  /// First time the plan reaches arc position s, or nullopt if it never does
  /// (e.g. s lies beyond the path and the final speed is zero).
  std::optional<Tick> time_at(double s) const;

  /// Expected observable status at time t, given the route geometry.
  traffic::VehicleStatus expected_status(const traffic::Route& route, Tick t) const;

  /// Canonical serialization (Merkle leaf / wire format).
  Bytes serialize() const;
  /// nullopt on malformed input, including segment starts that are not
  /// non-decreasing within [0, 2^53) (honest plans start at sim times).
  static std::optional<TravelPlan> deserialize(const Bytes& data);

  /// The wire form's field list (util/archive.h).
  template <class Ar, class Self> static void io(Ar& ar, Self& p);

  /// Exact serialized size: fixed header/footer (84 bytes) + 24 per segment.
  /// Kept in lock-step with serialize() so callers can reserve() up front.
  std::size_t wire_size() const { return 84 + 24 * segments.size(); }

  bool operator==(const TravelPlan& o) const;
};

/// A conflict found between two plans (or within one plan's constraints).
struct PlanConflict {
  VehicleId first;
  VehicleId second;
  int zone_id{-1};  ///< -1 for same-route headway violations
  Tick overlap_begin{0};
  Tick overlap_end{0};
};

/// Checks a batch of plans (plus optional earlier plans) for conflicts:
/// two plans must never occupy the same conflict zone simultaneously, and
/// plans on the same route must keep their core occupancy disjoint.
/// `margin_ms` is the protective time buffer around each occupancy.
/// Returns all conflicts found (empty = consistent).
std::vector<PlanConflict> find_plan_conflicts(
    const traffic::Intersection& intersection,
    const std::vector<const TravelPlan*>& plans, Duration margin_ms);

/// One plan's margin-padded occupancy intervals over its route's resources
/// (the per-route core interval plus every conflict zone it crosses) —
/// everything find_plan_conflicts derives from a plan, computed once so a
/// caller testing one plan against many can reuse it instead of re-walking
/// the plan's segments per pair.
struct PlanOccupancy {
  int route_id{-1};
  /// Core interval [in - margin, out + margin), absent if never entered.
  std::optional<std::pair<Tick, Tick>> core;
  /// (zone id, padded interval) for each zone occupied, in zones_for order.
  std::vector<std::pair<int, std::pair<Tick, Tick>>> zones;
};

PlanOccupancy plan_occupancy(const traffic::Intersection& intersection,
                             const TravelPlan& plan, Duration margin_ms);

/// Whether two distinct vehicles' plans conflict — exactly the boolean
/// `!find_plan_conflicts(ix, {&a, &b}, margin).empty()` computes, evaluated
/// on precomputed occupancies: same route compares core intervals (headway),
/// different routes compare shared-zone intervals.
bool occupancies_conflict(const PlanOccupancy& a, const PlanOccupancy& b);

}  // namespace nwade::aim
