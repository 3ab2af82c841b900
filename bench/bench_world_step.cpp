// Perf-regression driver for world stepping.
//
// One arrival-saturated mixed-traffic scenario (4-way cross, 1500 veh/min
// demand, 40% legacy — the junction queues, so ~1700 vehicles accumulate)
// is run to completion and timed. What a step costs here is legacy car
// following (each follower scans its own route), managed physics, the
// once-a-second all-pairs ground-truth gap audit and the broadcast range
// scan, all serial loops over the live vehicles.
//
// This bench prices stepping only: the NWADE security layer is disabled on
// purpose, so no neighbourhood watch runs and nothing fans out on the step
// pool, and one run at the default step_threads is the whole measurement
// (WorldParallel pins thread invariance where the pool does run). The
// protocol-on workload — RSA-2048 at paper densities with a per-layer
// breakdown — is measured by perfbench/ (BENCHMARK.json); per-packet crypto
// has bench_hot_paths.
//
// Emits BENCH_world_step.json in the nwade-bench-v1 envelope (support.h).
// `--smoke` shrinks the scenario and validates the JSON round-trip; the
// perf-labeled ctest entry runs that mode.
#include <cstring>
#include <string>
#include <vector>

#include "sim/world.h"
#include "support.h"

namespace {

using namespace nwade;

sim::ScenarioConfig scenario(bool smoke) {
  sim::ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = smoke ? 80 : 1500;
  cfg.duration_ms = smoke ? 8'000 : 120'000;
  cfg.legacy_fraction = 0.4;  // legacy traffic follows managed and legacy leaders
  cfg.nwade.security_enabled = false;  // stepping only; crypto is bench_hot_paths' job
  cfg.seed = 9;
  return cfg;
}

int run(bool smoke) {
  const auto t_start = std::chrono::steady_clock::now();
  const sim::ScenarioConfig cfg = scenario(smoke);
  // Each World memoizes into its own verify cache, so no rep's verdicts
  // carry over into another's timing.
  const bench::TimingStats timing =
      bench::timed_median(smoke ? 0 : 1, smoke ? 1 : 5, [&] {
        sim::World world(cfg);
        (void)world.run();
      });

  // The phase keeps the name of the step_threads 1 row that earlier records
  // carry, so scripts/bench_diff.py compares it with them.
  const std::vector<std::string> phases = {
      bench::json_phase("world_step_soa_threads1", timing),
  };
  const std::vector<std::string> extra = {
      bench::json_field("vehicles_per_minute", cfg.vehicles_per_minute, 0),
      bench::json_field("duration_ms", static_cast<double>(cfg.duration_ms), 0),
      bench::json_field("legacy_fraction", cfg.legacy_fraction, 2),
      bench::json_field("nwade_enabled", std::string("false")),
  };

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  const std::string envelope =
      bench::bench_envelope("world_step", wall_s, phases, extra);
  if (!bench::json_well_formed(envelope)) {
    std::fprintf(stderr, "FAIL: emitted envelope is not well-formed JSON\n");
    return 1;
  }
  const std::string path =
      smoke ? "BENCH_world_step.smoke.json" : "BENCH_world_step.json";
  if (!bench::write_bench_file(path, envelope)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
    return 1;
  }

  if (smoke) {
    std::string back;
    if (!bench::read_file(path, back) || back != envelope ||
        !bench::json_well_formed(back)) {
      std::fprintf(stderr, "FAIL: %s did not round-trip\n", path.c_str());
      return 1;
    }
    std::printf("smoke OK: envelope round-trips\n");
  } else {
    std::printf("world_step: %.2f ms median of %d runs\n", timing.median_ms,
                timing.reps);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return run(smoke);
}
