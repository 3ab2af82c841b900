// Perf-regression driver for world stepping geometry.
//
// One arrival-saturated mixed-traffic scenario (4-way cross, 1500 veh/min
// demand, 40% legacy — the junction queues, so ~1700 vehicles accumulate)
// is run to completion at step_threads 1, 2 and 4. The steps are the
// spatial-index sweeps (ground-truth min-gap audit, managed and legacy
// car-following lookups, sensor queries, broadcast range scan) over the SoA
// vehicle columns, with the chunked phase kernels. Before timing, every
// thread count must produce an identical run summary — threads may only
// change wall time, never a result.
//
// This bench prices geometry only: the NWADE security layer is disabled on
// purpose, so it says nothing about the protocol-on workload, where the
// neighbourhood watch and block verification dominate. That workload —
// RSA-2048 at paper densities with a per-layer breakdown — is measured by
// perfbench/ (BENCHMARK.json); per-packet crypto has bench_hot_paths.
//
// Emits BENCH_world_step.json in the nwade-bench-v1 envelope (support.h).
// `--smoke` shrinks the scenario and validates the JSON round-trip; the
// perf-labeled ctest entry runs that mode.
#include <cstring>
#include <string>
#include <vector>

#include "crypto/verify_cache.h"
#include "support.h"

namespace {

using namespace nwade;

struct Options {
  bool smoke{false};
  bool allow_single_core{false};
};

sim::ScenarioConfig scenario(bool smoke, int step_threads) {
  sim::ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = smoke ? 80 : 1500;
  cfg.duration_ms = smoke ? 8'000 : 120'000;
  cfg.legacy_fraction = 0.4;  // exercises both car-following lookups
  cfg.nwade_enabled = false;  // stepping only; crypto is bench_hot_paths' job
  cfg.seed = 9;
  cfg.step_threads = step_threads;
  return cfg;
}

/// Every deterministic field of a RunSummary, rendered to a fixed-format
/// string so two runs can be compared byte for byte (the wall-clock timing
/// vectors in Metrics are deliberately excluded).
std::string fingerprint(const sim::RunSummary& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "spawned=%d exited=%d thr=%.6f cross=%.6f active=%d gaps=%d "
      "legacy=%d/%d inc=%d glob=%d alerts=%d false=%d degraded=%d blocks=%d "
      "sent=%llu delivered=%llu dropped=%llu oor=%llu bytes=%llu",
      s.metrics.vehicles_spawned, s.metrics.vehicles_exited, s.throughput_vpm,
      s.mean_crossing_ms, s.active_at_end, s.min_ground_truth_gap_violations,
      s.legacy_spawned, s.legacy_exited, s.metrics.incident_reports,
      s.metrics.global_reports, s.metrics.evacuation_alerts,
      s.metrics.false_alarm_evacuations, s.metrics.degraded_entries,
      s.metrics.blocks_published,
      static_cast<unsigned long long>(s.net_stats.packets_sent),
      static_cast<unsigned long long>(s.net_stats.packets_delivered),
      static_cast<unsigned long long>(s.net_stats.packets_dropped),
      static_cast<unsigned long long>(s.net_stats.packets_out_of_range),
      static_cast<unsigned long long>(s.net_stats.bytes_sent));
  return buf;
}

int run(const Options& opt) {
  // The step_threads phases below are thread-scaling numbers: on a 1-core
  // host they measure pool overhead, not speedup. Refuse to record an
  // envelope from such a host unless explicitly overridden (the envelope
  // then carries single_core_host=true). The smoke mode never records real
  // timings, so it always runs.
  const bool single_core = std::thread::hardware_concurrency() <= 1;
  if (!opt.smoke && single_core && !opt.allow_single_core) {
    std::fprintf(stderr,
                 "refusing to record BENCH_world_step.json: "
                 "hardware_concurrency=%u (the step_threads phases from a "
                 "1-core host measure pool overhead, not speedup).\n"
                 "Re-run with --allow-single-core to record anyway; the "
                 "envelope will carry single_core_host=true.\n",
                 std::thread::hardware_concurrency());
    return 3;
  }

  const auto t_start = std::chrono::steady_clock::now();
  const int warmup = opt.smoke ? 0 : 1;
  const int reps = opt.smoke ? 1 : 5;

  // Equivalence gate first: every thread count must produce an identical
  // summary, or the timings below compare different simulations.
  std::string fp_reference;
  for (const int threads : {1, 2, 4}) {
    const std::string fp =
        fingerprint(sim::World(scenario(opt.smoke, threads)).run());
    if (fp_reference.empty()) {
      fp_reference = fp;
    } else if (fp != fp_reference) {
      std::fprintf(stderr,
                   "FAIL: step_threads=%d run diverged from step_threads=1\n  "
                   "step_threads=1: %s\n  step_threads=%d: %s\n",
                   threads, fp_reference.c_str(), threads, fp.c_str());
      return 1;
    }
  }
  std::printf("equivalence: soa at step_threads 1, 2 and 4 summaries "
              "identical\n  %s\n",
              fp_reference.c_str());

  // Phase boundary: start each mode from a pristine process-wide cache so
  // one phase's memoized verdicts can never skew the other's timings.
  const auto timed_mode = [&](int threads) {
    crypto::SigVerifyCache::instance().reset();
    return bench::timed_median(warmup, reps, [&] {
      sim::World world(scenario(opt.smoke, threads));
      (void)world.run();
    });
  };
  const auto soa = timed_mode(1);
  const auto soa_t2 = timed_mode(2);
  const auto soa_t4 = timed_mode(4);
  const auto ratio = [](const bench::TimingStats& before,
                        const bench::TimingStats& after) {
    return after.median_ms > 0 ? before.median_ms / after.median_ms : 0;
  };

  const std::vector<std::string> phases = {
      bench::json_phase("world_step_soa_threads1", soa),
      bench::json_phase("world_step_soa_threads2", soa_t2),
      bench::json_phase("world_step_soa_threads4", soa_t4),
      // Every speedup row names both sides: numerator config vs denominator.
      bench::json_speedup("world_step_soa_threads4_vs_soa_threads1",
                          ratio(soa, soa_t4)),
  };
  const sim::ScenarioConfig shape = scenario(opt.smoke, 1);
  const std::vector<std::string> extra = {
      bench::json_field("vehicles_per_minute", shape.vehicles_per_minute, 0),
      bench::json_field("duration_ms",
                        static_cast<double>(shape.duration_ms), 0),
      bench::json_field("legacy_fraction", shape.legacy_fraction, 2),
      bench::json_field("nwade_enabled", std::string("false")),
      bench::json_field("summaries_identical", std::string("true")),
      bench::json_field("single_core_host",
                        std::string(single_core ? "true" : "false")),
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
      opt.smoke ? "BENCH_world_step.smoke.json" : "BENCH_world_step.json";
  if (!bench::write_bench_file(path, envelope)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
    return 1;
  }

  if (opt.smoke) {
    std::string back;
    if (!bench::read_file(path, back) || back != envelope ||
        !bench::json_well_formed(back)) {
      std::fprintf(stderr, "FAIL: %s did not round-trip\n", path.c_str());
      return 1;
    }
    std::printf("smoke OK: equivalence holds and envelope round-trips\n");
  } else {
    std::printf(
        "world_step: soa@1t %.2f ms, soa@2t %.2f ms, soa@4t %.2f ms "
        "(%.2fx vs soa@1t, hardware_concurrency=%u)\n",
        soa.median_ms, soa_t2.median_ms, soa_t4.median_ms, ratio(soa, soa_t4),
        std::thread::hardware_concurrency());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--allow-single-core") == 0) {
      opt.allow_single_core = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--allow-single-core]\n",
                   argv[0]);
      return 2;
    }
  }
  return run(opt);
}
