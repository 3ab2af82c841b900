// Perf-regression driver for the hot paths this repo optimized:
//
//   A. schedule() under dense traffic (120 veh/min, 4-way cross) through
//      the indexed IntervalTable path (tests/aim/scheduler_equivalence_test
//      holds the table to a linear-sweep oracle).
//   B. block verification by many receivers, one after another as event
//      delivery runs them: the pre-PR shape (every receiver deserializes its
//      own wire copy, rebuilds the Merkle tree, and pays a full RSA modexp
//      through an uncached verifier) vs one shared immutable Block checked
//      through one verify cache, as a World does (payload and Merkle root
//      built once, one modexp for the fleet).
//   C. the telemetry tax: the same seeded World run with the event tracer
//      off vs on. The envelope carries the measured overhead as a top-level
//      telemetry_overhead_pct field (docs/OBSERVABILITY.md quotes it).
//   D. the checkpoint writer: checkpoint_save() of one saturated HMAC world
//      (cross4, 120 veh/min, stepped once) as the median over several
//      saves of the same state, and util::crc32 over 16 MiB (1 MiB under
//      --smoke). The envelope carries the saved size as a top-level
//      checkpoint_bytes field.
//
// Emits BENCH_hot_paths.json in the nwade-bench-v1 envelope (support.h).
// `--smoke` shrinks every dimension and validates the JSON round-trip; the
// perf-labeled ctest entry runs that mode so CI catches emitter rot without
// paying for real timings.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "aim/scheduler.h"
#include "chain/block.h"
#include "crypto/signer.h"
#include "crypto/verify_cache.h"
#include "sim/world.h"
#include "support.h"
#include "traffic/arrivals.h"
#include "util/crc32.h"
#include "util/rng.h"

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

// --- phase B: block verification by many receivers ---------------------------

chain::BlockPtr make_block(const crypto::Signer& signer, int n_plans) {
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
/// and runs a modexp (`RsaSigner::verifier()` memoizes nothing).
bench::TimingStats time_fanout_uncached(const Bytes& wire,
                                        const crypto::Verifier& verifier,
                                        int receivers, int warmup, int reps) {
  return bench::timed_median(warmup, reps, [&] {
    for (int r = 0; r < receivers; ++r) {
      auto copy = chain::Block::deserialize(wire);
      const bool ok = copy && copy->verify_signature(verifier) &&
                      copy->verify_merkle();
      if (!ok) std::abort();  // a bench that verifies nothing times nothing
    }
  });
}

/// Post-PR shape: one shared Block, every receiver's check going through
/// one verifier that memoizes into one cache. The cache starts empty every
/// rep, so each measurement pays the one real modexp the fleet shares, not
/// a free ride on the previous rep.
bench::TimingStats time_fanout_cached(const chain::Block& block,
                                      const crypto::Signer& signer,
                                      int receivers, int warmup, int reps) {
  crypto::SigVerifyCache cache;
  const auto verifier = signer.verifier_with_cache(cache);
  return bench::timed_median(warmup, reps, [&] {
    cache = crypto::SigVerifyCache();
    for (int r = 0; r < receivers; ++r) {
      const bool ok = block.verify_signature(*verifier) && block.verify_merkle();
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

// --- phase D: checkpoint envelope writer ------------------------------------

/// A saturated HMAC world stepped to `duration_ms`: the state a serve
/// process checkpoints once demand has outrun the junction.
std::unique_ptr<sim::World> saturated_world(Duration duration_ms) {
  sim::ScenarioConfig cfg;
  cfg.intersection.kind = traffic::IntersectionKind::kCross4;
  cfg.vehicles_per_minute = 120;
  cfg.duration_ms = duration_ms;
  cfg.seed = 11;
  auto world = std::make_unique<sim::World>(std::move(cfg));
  world->run_until(duration_ms);
  return world;
}

/// Saves of one unchanged world; every save must write the same size.
bench::TimingStats time_checkpoint_save(const sim::World& world,
                                        std::size_t& bytes, int warmup,
                                        int reps) {
  bytes = 0;
  return bench::timed_median(warmup, reps, [&] {
    const Bytes blob = world.checkpoint_save();
    if (blob.empty() || (bytes != 0 && blob.size() != bytes)) std::abort();
    bytes = blob.size();
  });
}

bench::TimingStats time_crc32(const Bytes& data, int warmup, int reps) {
  volatile std::uint32_t sink = 0;
  return bench::timed_median(warmup, reps, [&] { sink = util::crc32(data); });
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

  std::printf("phase B: %d receivers, RSA-%d (uncached vs cached)\n",
              receivers, rsa_bits);
  Rng rng(7);
  const auto signer = crypto::RsaSigner::generate(rng, rsa_bits);
  const auto verifier = signer->verifier();
  const chain::BlockPtr block_ptr = make_block(*signer, plans_per_block);
  const chain::Block& block = *block_ptr;
  const Bytes wire = block.serialize();

  const auto fan_uncached =
      time_fanout_uncached(wire, *verifier, receivers, warmup, reps);
  const auto fan_cached =
      time_fanout_cached(block, *signer, receivers, warmup, reps);
  const double fan_speedup = fan_cached.median_ms > 0
                                 ? fan_uncached.median_ms / fan_cached.median_ms
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

  const Duration ckpt_world_ms = opt.smoke ? 30'000 : 120'000;
  const std::size_t crc_len = opt.smoke ? (1u << 20) : (16u << 20);
  std::printf("phase D: checkpoint_save of a %lld ms saturated world, "
              "crc32 over %zu bytes\n",
              static_cast<long long>(ckpt_world_ms), crc_len);
  const auto ckpt_world = saturated_world(ckpt_world_ms);
  std::size_t ckpt_bytes = 0;
  const auto ckpt_save =
      time_checkpoint_save(*ckpt_world, ckpt_bytes, warmup, reps);
  Bytes crc_input(crc_len);
  Rng crc_rng(3);
  for (std::uint8_t& b : crc_input) {
    b = static_cast<std::uint8_t>(crc_rng.next_u64());
  }
  const auto crc = time_crc32(crc_input, warmup, reps);

  const std::vector<std::string> phases = {
      bench::json_phase("schedule_dense_indexed", sched_indexed),
      bench::json_phase("fanout_verify_uncached", fan_uncached),
      bench::json_phase("fanout_verify_cached_pool1", fan_cached),
      bench::json_speedup("fanout_verify", fan_speedup),
      bench::json_phase("world_run_untraced", world_untraced),
      bench::json_phase("world_run_traced", world_traced),
      bench::json_phase("checkpoint_save", ckpt_save),
      bench::json_phase("crc32", crc),
  };

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  const std::string envelope = bench::bench_envelope(
      "hot_paths", wall_s, phases,
      {bench::json_field("telemetry_overhead_pct", telemetry_overhead_pct, 2),
       bench::json_field("checkpoint_bytes", static_cast<double>(ckpt_bytes),
                         0)});
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
                fan_speedup, fan_uncached.median_ms, fan_cached.median_ms);
    std::printf("telemetry overhead:     %.2f%% (untraced %.2f ms -> traced %.2f ms)\n",
                telemetry_overhead_pct, world_untraced.median_ms,
                world_traced.median_ms);
    std::printf("checkpoint_save:        %.2f ms (%zu bytes)\n",
                ckpt_save.median_ms, ckpt_bytes);
    std::printf("crc32 16 MiB:           %.2f ms (%.0f MB/s)\n", crc.median_ms,
                crc.median_ms > 0 ? crc_len / 1e3 / crc.median_ms : 0.0);
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
