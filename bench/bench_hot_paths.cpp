// Perf-regression driver for the two hot paths this repo optimized:
//
//   A. schedule() under dense traffic (120 veh/min, 4-way cross) through
//      the indexed IntervalTable path (tests/aim/scheduler_equivalence_test
//      holds the table to a linear-sweep oracle).
//   B. block-verification fan-out across many receivers: the pre-PR shape
//      (every receiver deserializes its own wire copy, rebuilds the Merkle
//      tree, and pays a full RSA modexp — emulated by disabling the
//      process-wide SigVerifyCache) vs the shared-block fanout_verify path
//      (one Block object, cached payload/tree, one modexp for the fleet).
//   C. the telemetry tax: the same seeded World run with the event tracer
//      off vs on. The envelope carries the measured overhead as a top-level
//      telemetry_overhead_pct field (docs/OBSERVABILITY.md quotes it).
//
// Emits BENCH_hot_paths.json in the nwade-bench-v1 envelope (support.h).
// `--smoke` shrinks every dimension and validates the JSON round-trip; the
// perf-labeled ctest entry runs that mode so CI catches emitter rot without
// paying for real timings.
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aim/scheduler.h"
#include "chain/block.h"
#include "chain/fanout.h"
#include "crypto/signer.h"
#include "crypto/verify_cache.h"
#include "support.h"
#include "traffic/arrivals.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace {

using namespace nwade;

struct Options {
  bool smoke{false};
};

// --- phase A: dense scheduling ----------------------------------------------

bench::TimingStats time_schedule_dense(const traffic::Intersection& ix,
                                       const std::vector<traffic::Arrival>& arrivals,
                                       int warmup, int reps) {
  return bench::timed_median(warmup, reps, [&] {
    aim::ReservationScheduler sched(ix);
    std::uint64_t vid = 1;
    for (const auto& a : arrivals) {
      auto plan = sched.schedule(VehicleId{vid++}, a.route_id, a.traits, a.time,
                                 a.initial_speed_mps);
      (void)plan;
    }
  });
}

// --- phase B: block-verification fan-out ------------------------------------

chain::Block make_block(const crypto::Signer& signer, int n_plans) {
  std::vector<aim::TravelPlan> plans;
  for (int i = 0; i < n_plans; ++i) {
    aim::TravelPlan p;
    p.vehicle = VehicleId{static_cast<std::uint64_t>(i) + 1};
    p.route_id = i % 12;
    p.issued_at = 1'000;
    p.core_entry = 5'000 + i * 100;
    p.core_exit = 8'000 + i * 100;
    p.segments = {aim::PlanSegment{1'000, 0.0, 12.0},
                  aim::PlanSegment{5'000, 80.0, 15.0}};
    plans.push_back(std::move(p));
  }
  return chain::Block::package(1, crypto::Digest{}, 1'000, std::move(plans),
                               signer);
}

/// Pre-PR receiver shape: each vehicle holds its own wire copy of the block,
/// so every verification deserializes, rebuilds the payload and Merkle tree,
/// and runs an uncached modexp. Capacity 0 turns the SigVerifyCache into a
/// pass-through, reproducing the seed cost model through today's API.
bench::TimingStats time_fanout_uncached(const Bytes& wire,
                                        const crypto::Verifier& verifier,
                                        int receivers, int warmup, int reps) {
  auto& cache = crypto::SigVerifyCache::instance();
  const std::size_t saved_capacity = cache.capacity();
  cache.set_capacity(0);
  auto stats = bench::timed_median(warmup, reps, [&] {
    for (int r = 0; r < receivers; ++r) {
      auto copy = chain::Block::deserialize(wire);
      const bool ok = copy && copy->verify_signature(verifier) &&
                      copy->verify_merkle();
      if (!ok) std::abort();  // a bench that verifies nothing times nothing
    }
  });
  cache.set_capacity(saved_capacity);
  return stats;
}

/// Post-PR shape: one shared Block, fanout_verify over a worker pool. The
/// cache is reset (entries AND stats) every rep so each measurement pays
/// the one real modexp the fleet shares — not a free ride on the previous
/// rep — and the hit/miss counters describe only the rep being timed.
bench::TimingStats time_fanout_cached(const chain::Block& block,
                                      const crypto::Verifier& verifier,
                                      int receivers, int pool_threads,
                                      int warmup, int reps) {
  std::vector<const crypto::Verifier*> verifiers(
      static_cast<std::size_t>(receivers), &verifier);
  util::WorkerPool pool(pool_threads);
  auto& cache = crypto::SigVerifyCache::instance();
  return bench::timed_median(warmup, reps, [&] {
    cache.reset();
    const auto results = chain::fanout_verify(block, verifiers, pool);
    for (const auto ok : results) {
      if (!ok) std::abort();
    }
  });
}

// --- phase C: telemetry overhead on a whole-World run ------------------------

bench::TimingStats time_world_run(Duration duration_ms, bool trace, int warmup,
                                  int reps) {
  return bench::timed_median(warmup, reps, [&] {
    sim::ScenarioConfig cfg;
    cfg.intersection.kind = traffic::IntersectionKind::kCross4;
    cfg.vehicles_per_minute = 80;
    cfg.duration_ms = duration_ms;
    cfg.seed = 11;
    cfg.trace_enabled = trace;
    sim::World world(std::move(cfg));
    const auto summary = world.run();
    if (summary.metrics.vehicles_spawned == 0) std::abort();
  });
}

int run(const Options& opt) {
  const auto t_start = std::chrono::steady_clock::now();

  // Dimensions: smoke keeps ctest fast; full mode measures the acceptance
  // regime (120 veh/min dense cross, 64 receivers, RSA-2048).
  const Duration sched_window_ms = opt.smoke ? 60'000 : 10 * 60'000;
  const int rsa_bits = opt.smoke ? 512 : 2048;
  const int receivers = opt.smoke ? 8 : 64;
  const int plans_per_block = opt.smoke ? 4 : 32;
  const int warmup = opt.smoke ? 0 : 1;
  const int reps = opt.smoke ? 1 : 7;

  traffic::IntersectionConfig ix_cfg;
  ix_cfg.kind = traffic::IntersectionKind::kCross4;
  const auto ix = traffic::Intersection::build(ix_cfg);
  traffic::ArrivalGenerator gen(ix, 120, Rng(2026));
  const auto arrivals = gen.generate(sched_window_ms);
  std::printf("phase A: scheduling %zu dense arrivals\n", arrivals.size());

  const auto sched_indexed = time_schedule_dense(ix, arrivals, warmup, reps);

  std::printf("phase B: %d-receiver fan-out, RSA-%d (uncached vs cached)\n",
              receivers, rsa_bits);
  Rng rng(7);
  const auto signer = crypto::RsaSigner::generate(rng, rsa_bits);
  const auto verifier = signer->verifier();
  const chain::Block block = make_block(*signer, plans_per_block);
  const Bytes wire = block.serialize();

  const auto fan_uncached =
      time_fanout_uncached(wire, *verifier, receivers, warmup, reps);
  const auto fan_cached_1 =
      time_fanout_cached(block, *verifier, receivers, /*pool=*/1, warmup, reps);
  const double fan_speedup = fan_cached_1.median_ms > 0
                                 ? fan_uncached.median_ms / fan_cached_1.median_ms
                                 : 0;

  const Duration world_ms = opt.smoke ? 30'000 : 120'000;
  std::printf("phase C: %lld ms World run, tracer off vs on\n",
              static_cast<long long>(world_ms));
  const auto world_untraced =
      time_world_run(world_ms, /*trace=*/false, warmup, reps);
  const auto world_traced =
      time_world_run(world_ms, /*trace=*/true, warmup, reps);
  const double telemetry_overhead_pct =
      world_untraced.median_ms > 0
          ? (world_traced.median_ms - world_untraced.median_ms) * 100.0 /
                world_untraced.median_ms
          : 0;

  std::vector<std::string> phases = {
      bench::json_phase("schedule_dense_indexed", sched_indexed),
      bench::json_phase("fanout_verify_uncached", fan_uncached),
      bench::json_phase("fanout_verify_cached_pool1", fan_cached_1),
      bench::json_speedup("fanout_verify", fan_speedup),
      bench::json_phase("world_run_untraced", world_untraced),
      bench::json_phase("world_run_traced", world_traced),
  };

  // A multi-threaded pool point when the host has cores to spare. Kept out
  // of the headline speedup: determinism, not parallelism, is its contract.
  const unsigned hw = std::thread::hardware_concurrency();
  if (!opt.smoke && hw > 1) {
    const int pool_n = static_cast<int>(hw);
    const auto fan_cached_n =
        time_fanout_cached(block, *verifier, receivers, pool_n, warmup, reps);
    phases.push_back(bench::json_phase(
        "fanout_verify_cached_pool" + std::to_string(pool_n), fan_cached_n));
  }

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  const std::string envelope = bench::bench_envelope(
      "hot_paths", wall_s, phases,
      {bench::json_field("telemetry_overhead_pct", telemetry_overhead_pct, 2)});
  if (!bench::json_well_formed(envelope)) {
    std::fprintf(stderr, "FAIL: emitted envelope is not well-formed JSON\n");
    return 1;
  }
  const std::string path =
      opt.smoke ? "BENCH_hot_paths.smoke.json" : "BENCH_hot_paths.json";
  if (!bench::write_bench_file(path, envelope)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", path.c_str());
    return 1;
  }

  if (opt.smoke) {
    // Round-trip: what landed on disk must re-read and re-validate.
    std::string back;
    if (!bench::read_file(path, back) || back != envelope ||
        !bench::json_well_formed(back)) {
      std::fprintf(stderr, "FAIL: %s did not round-trip\n", path.c_str());
      return 1;
    }
    if (envelope.find("\"telemetry_overhead_pct\"") == std::string::npos) {
      std::fprintf(stderr,
                   "FAIL: envelope is missing telemetry_overhead_pct\n");
      return 1;
    }
    std::printf("smoke OK: envelope round-trips, parses, and reports the "
                "telemetry overhead\n");
  } else {
    std::printf("schedule_dense:         %.2f ms (indexed)\n",
                sched_indexed.median_ms);
    std::printf("fanout_verify speedup:  %.2fx (uncached %.2f ms -> cached %.2f ms)\n",
                fan_speedup, fan_uncached.median_ms, fan_cached_1.median_ms);
    std::printf("telemetry overhead:     %.2f%% (untraced %.2f ms -> traced %.2f ms)\n",
                telemetry_overhead_pct, world_untraced.median_ms,
                world_traced.median_ms);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  return run(opt);
}
