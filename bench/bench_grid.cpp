// Shard-scaling driver for the multi-intersection lattice (sim::Grid).
//
// Two questions, one envelope:
//
//  * grid-thread scaling: a fixed 4x4 grid (aggregate demand >= 10k vpm)
//    stepped at grid_threads 1/2/4/8. Before any timing, the determinism
//    gate asserts the grid summary digest is byte-identical at every thread
//    count — grid_threads may only change the wall clock, never a result
//    byte (the same contract bench_campaign enforces for its pool).
//  * shard-count scaling: 1x1 -> 2x2 -> 4x4 at a fixed thread count. Total
//    work grows with the shard count; on a multicore host the wall clock
//    per shard should stay near-constant (near-linear scaling).
//
// Interpreting the numbers: wall-clock speedup is bounded by the cores the
// host actually has, which is why the envelope records hardware_concurrency
// and refuses to record from a 1-core host without --allow-single-core (the
// envelope then carries single_core_host=true so bench_diff treats timing
// shifts as advisory).
//
// Emits BENCH_grid.json in the nwade-bench-v1 envelope (support.h).
// `--smoke` shrinks every dimension and validates the JSON round-trip; the
// perf/chaos-labeled ctest entry runs that mode.
#include <cstring>
#include <string>
#include <vector>

#include "sim/grid.h"
#include "support.h"
#include "util/file_io.h"

namespace {

using namespace nwade;

struct Options {
  bool smoke{false};
  bool allow_single_core{false};
};

/// A rows x cols lattice of cross4 shards at `vpm` demand per shard.
sim::GridConfig grid_config(int rows, int cols, double vpm, Duration duration,
                            int grid_threads) {
  sim::GridConfig g;
  g.rows = rows;
  g.cols = cols;
  g.shard = bench::default_scenario();
  g.shard.vehicles_per_minute = vpm;
  g.shard.duration_ms = duration;
  g.seed = 7;
  g.exchange_every_ms = 500;
  g.gossip_every_ms = 1'000;
  g.grid_threads = grid_threads;
  return g;
}

int run(const Options& opt) {
  const char* out_path = opt.smoke ? "BENCH_grid.smoke.json" : "BENCH_grid.json";
  // Fail a typo'd/unwritable output path in milliseconds, not after the
  // full timing matrix.
  if (!util::preflight_output_path(out_path)) return 1;

  // Same guard rail as bench_campaign: a 1-core host cannot show thread or
  // shard scaling — its rows measure scheduling overhead. Refuse to record
  // unless the caller opts in; the envelope then carries
  // single_core_host=true so a diff tool can refuse hard comparisons.
  const bool single_core = std::thread::hardware_concurrency() <= 1;
  if (!opt.smoke && single_core && !opt.allow_single_core) {
    std::fprintf(stderr,
                 "refusing to record BENCH_grid.json: "
                 "hardware_concurrency=%u (grid-scaling numbers from a "
                 "1-core host are pool overhead, not speedup).\n"
                 "Re-run with --allow-single-core to record anyway; the "
                 "envelope will carry single_core_host=true.\n",
                 std::thread::hardware_concurrency());
    return 3;
  }

  const auto t_start = std::chrono::steady_clock::now();
  // Full mode: 4x4 at 640 vpm/shard = 10'240 vpm aggregate demand (the
  // ROADMAP item-1 target scale); smoke keeps the topology but shrinks
  // everything else.
  // 40 simulated seconds: one cross4 crossing takes ~30 s, so a shorter
  // window would time a lattice with zero boundary handoffs — demand
  // without exchange. Smoke keeps the short window (its handoff coverage
  // lives in grid_test/grid_parallel_test).
  const int dim = opt.smoke ? 2 : 4;
  const double vpm = opt.smoke ? 80 : 640;
  const Duration duration = opt.smoke ? 5'000 : 40'000;
  const std::vector<int> pools =
      opt.smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const int warmup = 0;
  const int reps = opt.smoke ? 1 : 3;

  // Determinism gate first: every grid_threads value must reproduce the
  // thread-1 summary digest byte for byte, or the timings below compare
  // different work.
  std::string reference;
  std::uint64_t handoffs_delivered = 0;
  double aggregate_vpm = 0;
  for (const int pool : pools) {
    sim::Grid grid(grid_config(dim, dim, vpm, duration, pool));
    const sim::GridSummary s = grid.run();
    const std::string digest = sim::Grid::summary_digest(s);
    if (pool == pools.front()) {
      reference = digest;
      handoffs_delivered = s.handoffs_delivered;
      aggregate_vpm = s.aggregate_throughput_vpm;
    } else if (digest != reference) {
      std::fprintf(stderr,
                   "FAIL: grid_threads %d produced a different summary "
                   "digest than grid_threads %d — determinism contract "
                   "broken\n",
                   pool, pools.front());
      return 1;
    }
  }
  std::printf(
      "determinism: %dx%d grid digest byte-identical across grid_threads {",
      dim, dim);
  for (std::size_t i = 0; i < pools.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", pools[i]);
  }
  std::printf("}\n");
  std::printf("aggregate throughput %.0f vpm, %llu boundary handoffs\n",
              aggregate_vpm,
              static_cast<unsigned long long>(handoffs_delivered));

  // Grid-thread scaling on the fixed lattice.
  std::vector<std::string> phases;
  double median_pool1 = 0;
  double median_last = 0;
  for (const int pool : pools) {
    const auto stats = bench::timed_median(warmup, reps, [&] {
      sim::Grid grid(grid_config(dim, dim, vpm, duration, pool));
      const sim::GridSummary s = grid.run();
      if (s.shards.size() != static_cast<std::size_t>(dim * dim)) std::abort();
    });
    std::printf("grid_threads %d: %dx%d grid in %.2f ms median\n", pool, dim,
                dim, stats.median_ms);
    phases.push_back(bench::json_phase(
        "grid_" + std::to_string(dim) + "x" + std::to_string(dim) +
            "_threads" + std::to_string(pool),
        stats));
    if (pool == pools.front()) median_pool1 = stats.median_ms;
    median_last = stats.median_ms;
  }
  const double speedup = median_last > 0 ? median_pool1 / median_last : 0;
  phases.push_back(bench::json_speedup(
      "grid_" + std::to_string(dim) + "x" + std::to_string(dim) + "_threads" +
          std::to_string(pools.back()) + "_vs_threads" +
          std::to_string(pools.front()),
      speedup));

  // Shard-count scaling rows at the largest thread budget: total work grows
  // with the lattice; near-linear scaling keeps wall clock per shard flat
  // on a multicore host.
  const int scale_threads = pools.back();
  for (const int d : opt.smoke ? std::vector<int>{1, 2}
                               : std::vector<int>{1, 2, 4}) {
    const auto stats = bench::timed_median(warmup, reps, [&] {
      sim::Grid grid(grid_config(d, d, vpm, duration, scale_threads));
      const sim::GridSummary s = grid.run();
      if (s.shards.size() != static_cast<std::size_t>(d * d)) std::abort();
    });
    std::printf("shards %dx%d (threads %d): %.2f ms median (%.2f ms/shard)\n",
                d, d, scale_threads, stats.median_ms,
                stats.median_ms / (d * d));
    phases.push_back(bench::json_phase(
        "grid_shards_" + std::to_string(d) + "x" + std::to_string(d), stats));
  }

  const std::vector<std::string> extra = {
      bench::json_field("grid_rows", static_cast<double>(dim), 0),
      bench::json_field("grid_cols", static_cast<double>(dim), 0),
      bench::json_field("vpm_per_shard", vpm, 0),
      bench::json_field("aggregate_demand_vpm",
                        static_cast<double>(dim * dim) * vpm, 0),
      bench::json_field("aggregate_throughput_vpm", aggregate_vpm, 1),
      bench::json_field("handoffs_delivered",
                        static_cast<double>(handoffs_delivered), 0),
      bench::json_field("results_deterministic", std::string("true")),
      bench::json_field("single_core_host",
                        std::string(single_core ? "true" : "false")),
  };

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  const std::string envelope =
      bench::bench_envelope("grid", wall_s, phases, extra);
  if (!bench::json_well_formed(envelope)) {
    std::fprintf(stderr, "FAIL: emitted envelope is not well-formed JSON\n");
    return 1;
  }
  if (!bench::write_bench_file(out_path, envelope)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path);
    return 1;
  }

  if (opt.smoke) {
    std::string back;
    if (!bench::read_file(out_path, back) || back != envelope ||
        !bench::json_well_formed(back)) {
      std::fprintf(stderr, "FAIL: %s did not round-trip\n", out_path);
      return 1;
    }
    std::printf("smoke OK: determinism holds and envelope round-trips\n");
  } else {
    std::printf("grid threads%d vs threads%d speedup: %.2fx "
                "(hardware_concurrency=%u)\n",
                pools.back(), pools.front(), speedup,
                std::thread::hardware_concurrency());
  }
  // Loud, non-fatal: 1-core timings measure pool overhead, not scaling.
  if (std::thread::hardware_concurrency() <= 1) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency=%u — this host cannot show "
                 "grid scaling;\nthe recorded timings in %s measure pool "
                 "overhead, not speedup.\n",
                 std::thread::hardware_concurrency(), out_path);
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
