// Intersection geometry: the five layouts the paper evaluates, reduced to the
// structure scheduling needs — one Path per (entry leg, movement) plus the
// conflict zones between every pair of paths.
//
//   (i)   3-way roundabout
//   (ii)  4-way cross
//   (iii) 5-way irregular intersection
//   (iv)  4-way continuous flow intersection (CFI): left turns cross the
//         opposing through lanes at an upstream crossover, removing the
//         classic left-vs-opposing-through conflict from the core
//   (v)   4-way diverging diamond interchange (DDI): the arterial's through
//         movements swap to the left side between two crossovers
//
// Conflicts are found numerically by sampling each route's "core" span (the
// part inside the conflict-relevant area) against every other route, so the
// special crossover conflicts of CFI/DDI emerge from the geometry instead of
// being hand-coded.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "geom/path.h"
#include "traffic/types.h"
#include "util/types.h"

namespace nwade::traffic {

enum class IntersectionKind : std::uint8_t {
  kRoundabout3 = 0,   ///< 3-way roundabout
  kCross4 = 1,        ///< 4-way cross
  kIrregular5 = 2,    ///< 5-way irregular
  kCfi4 = 3,          ///< 4-way continuous flow intersection
  kDdi4 = 4,          ///< 4-way diverging diamond interchange
};

inline const char* intersection_name(IntersectionKind k) {
  switch (k) {
    case IntersectionKind::kRoundabout3: return "3-way roundabout";
    case IntersectionKind::kCross4: return "4-way cross";
    case IntersectionKind::kIrregular5: return "5-way irregular";
    case IntersectionKind::kCfi4: return "4-way CFI";
    case IntersectionKind::kDdi4: return "4-way DDI";
  }
  return "?";
}

/// All five kinds, for parameter sweeps.
inline constexpr IntersectionKind kAllIntersectionKinds[] = {
    IntersectionKind::kRoundabout3, IntersectionKind::kCross4,
    IntersectionKind::kIrregular5, IntersectionKind::kCfi4,
    IntersectionKind::kDdi4};

/// Command-line token for one kind (`campaign --kinds`, `serve --kind`).
struct IntersectionToken {
  const char* token;
  IntersectionKind kind;
};
inline constexpr IntersectionToken kIntersectionTokens[] = {
    {"roundabout3", IntersectionKind::kRoundabout3},
    {"cross4", IntersectionKind::kCross4},
    {"irregular5", IntersectionKind::kIrregular5},
    {"cfi4", IntersectionKind::kCfi4},
    {"ddi4", IntersectionKind::kDdi4},
};

/// Looks `token` up in kIntersectionTokens; false when it names no kind.
inline bool parse_intersection_token(std::string_view token,
                                     IntersectionKind& out) {
  for (const IntersectionToken& entry : kIntersectionTokens) {
    if (token == entry.token) {
      out = entry.kind;
      return true;
    }
  }
  return false;
}

struct IntersectionConfig {
  IntersectionKind kind{IntersectionKind::kCross4};
  double lane_width_m{3.5};
  /// Distance from the spawn point (edge of the communication zone) to the
  /// start of the conflict-relevant area.
  double approach_length_m{250.0};
  double exit_length_m{120.0};
  /// Centre-to-centre distance below which two sampled path points conflict.
  double conflict_clearance_m{3.0};
  KinematicLimits limits;
};

/// One drivable route: entry leg + movement -> exit leg, as a full path from
/// spawn to the end of the exit leg.
struct Route {
  int id{0};
  int entry_leg{0};
  int exit_leg{0};
  Turn turn{Turn::kStraight};
  geom::Path path;
  /// Conflict-relevant span (arc length along `path`). Conflicts with other
  /// routes can only occur inside [core_begin, core_end].
  double core_begin{0};
  double core_end{0};
};

/// A shared resource: the region where two routes come within clearance.
/// `a`/`b` are route ids; the windows are arc-length ranges on each.
struct Zone {
  int id{0};
  int route_a{0};
  double a_begin{0}, a_end{0};
  int route_b{0};
  double b_begin{0}, b_end{0};
};

/// Reference from a route to one of its zones.
struct ZoneRef {
  int zone_id{0};
  double begin{0};  ///< window on *this* route
  double end{0};
};

/// Immutable intersection model shared by the scheduler and every vehicle.
class Intersection {
 public:
  static Intersection build(const IntersectionConfig& config);

  const IntersectionConfig& config() const { return config_; }
  IntersectionKind kind() const { return config_.kind; }
  int leg_count() const { return leg_count_; }

  const std::vector<Route>& routes() const { return routes_; }
  const Route& route(int id) const { return routes_.at(static_cast<std::size_t>(id)); }

  const std::vector<Zone>& zones() const { return zones_; }

  /// Zones touching a given route, with windows expressed on that route.
  const std::vector<ZoneRef>& zones_for(int route_id) const {
    return zone_refs_.at(static_cast<std::size_t>(route_id));
  }

  /// Routes departing from a given entry leg.
  std::vector<int> routes_from_leg(int leg) const;

  /// Turn-movement sampling weights for a given entry leg (sums to 1).
  /// Implements the paper's 25/50/25 left/straight/right split, generalized
  /// to legs that lack some movements.
  std::vector<double> turn_weights(int leg) const;

 private:
  void finalize();  // computes zones from routes

  IntersectionConfig config_;
  int leg_count_{0};
  std::vector<Route> routes_;
  std::vector<Zone> zones_;
  std::vector<std::vector<ZoneRef>> zone_refs_;
};

}  // namespace nwade::traffic
