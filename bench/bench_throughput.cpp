// Fig. 8 — Traffic Throughput.
//
// Compares intersection throughput (vehicles leaving per minute) with and
// without the NWADE mechanism, across all five intersection types and
// densities, with no attack in progress. The paper's claim: adding NWADE
// leaves throughput essentially unchanged.
#include "support.h"

using namespace nwade;
using namespace nwade::bench;

int main() {
  banner("Fig. 8: Traffic Throughput with vs without NWADE",
         "NWADE Fig. 8 — 5 intersections x densities, security on/off");

  row({"Intersection (density)", "no NWADE (vpm)", "NWADE (vpm)", "overhead"}, 26);

  const std::vector<double> densities = {40, 80, 120};
  for (traffic::IntersectionKind kind : traffic::kAllIntersectionKinds) {
    for (double density : densities) {
      std::vector<double> with, without;
      for (int round = 0; round < rounds(); ++round) {
        sim::ScenarioConfig cfg = default_scenario();
        cfg.intersection.kind = kind;
        cfg.vehicles_per_minute = density;
        cfg.seed = 500 + static_cast<std::uint64_t>(round);

        cfg.nwade.security_enabled = true;
        with.push_back(sim::World(cfg).run().throughput_vpm);
        cfg.nwade.security_enabled = false;
        without.push_back(sim::World(cfg).run().throughput_vpm);
      }
      const double on = mean(with), off = mean(without);
      const double overhead = off > 0 ? (off - on) / off : 0.0;
      char label[64];
      std::snprintf(label, sizeof(label), "%s (%.0f)", intersection_name(kind),
                    density);
      row({label, fmt(off, 1), fmt(on, 1), pct(overhead)}, 26);
    }
  }
  std::printf(
      "\npaper shape: throughput with NWADE matches the unprotected system\n"
      "at every intersection type and density (near-zero overhead), because\n"
      "verification runs off the driving path and plans are unchanged.\n");
  return 0;
}
