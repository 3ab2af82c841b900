// Allocation-profile driver for the crypto and messaging hot paths.
//
// Measures the steady-state cost AND the heap-allocation count per operation
// for the paths PR 4 made allocation-free: Montgomery multiply/exponentiate
// over a warmed workspace, CRT signing through a long-lived RsaSignContext,
// and the cache-hit verify that every fan-out receiver after the first pays.
// Emits BENCH_alloc.json (nwade-bench-v1, support.h); in builds configured
// with -DNWADE_COUNT_ALLOCS=ON each phase carries an "allocs_per_op" field,
// elsewhere only the timings (counting is compiled out).
//
// `--smoke` shrinks the dimensions and validates the JSON round-trip; the
// ctest entry (labels perf + alloc) runs that mode.
#include <cstring>
#include <string>
#include <vector>

#include "chain/block.h"
#include "crypto/bignum.h"
#include "crypto/rsa.h"
#include "crypto/signer.h"
#include "crypto/verify_cache.h"
#include "support.h"
#include "util/rng.h"

namespace {

using namespace nwade;
using namespace nwade::crypto;

struct Options {
  bool smoke{false};
};

BigUint random_odd_modulus(Rng& rng, int bits) {
  BigUint m = BigUint::random_bits(rng, bits);
  if (!m.is_odd()) m = m + BigUint(1);
  return m;
}

chain::BlockPtr make_block(const Signer& signer, int n_plans) {
  std::vector<aim::TravelPlan> plans;
  for (int i = 0; i < n_plans; ++i) {
    aim::TravelPlan p;
    p.vehicle = VehicleId{static_cast<std::uint64_t>(i) + 1};
    p.route_id = i % 12;
    p.segments = {aim::PlanSegment{0, 0.0, 12.0},
                  aim::PlanSegment{5'000, 80.0, 15.0}};
    plans.push_back(std::move(p));
  }
  return chain::Block::package(1, Digest{}, 1'000, std::move(plans), signer);
}

int run(const Options& opt) {
  const auto t_start = std::chrono::steady_clock::now();
  const int rsa_bits = opt.smoke ? 512 : 2048;
  const int warmup = opt.smoke ? 0 : 1;
  const int reps = opt.smoke ? 1 : 7;
  const int mont_iters = opt.smoke ? 100 : 10'000;
  const int plans_per_block = opt.smoke ? 4 : 32;

  std::printf("allocation profile: RSA-%d, %d mont_mul iters/rep%s\n", rsa_bits,
              mont_iters,
              util::alloc_counting_enabled() ? " (counting ON)"
                                             : " (counting OFF: timings only)");

  // --- Montgomery primitives over a warmed workspace ------------------------
  Rng rng(41);
  const Montgomery mont(random_odd_modulus(rng, rsa_bits));
  const std::size_t n = mont.limbs();
  std::vector<std::uint64_t> a(n), b(n), dst(n), scratch(n + 2);
  for (auto& l : a) l = rng.next_u64();
  for (auto& l : b) l = rng.next_u64();
  a[n - 1] = 0;  // operands < modulus (its msb is set)
  b[n - 1] = 0;
  const auto mont_mul_loop = [&] {
    for (int i = 0; i < mont_iters; ++i) {
      mont.mont_mul(dst.data(), dst.data(), b.data(), scratch.data());
    }
  };
  mont.mont_mul(dst.data(), a.data(), b.data(), scratch.data());  // warm
  const auto t_mont_mul = bench::timed_median(warmup, reps, mont_mul_loop);
  const double mul_allocs_raw = bench::allocs_per_op(1, mont_mul_loop);
  // Per mont_mul, not per loop of mont_iters.
  const double mul_allocs =
      mul_allocs_raw < 0 ? mul_allocs_raw
                         : mul_allocs_raw / static_cast<double>(mont_iters);

  MontWorkspace ws;
  const BigUint base = BigUint::random_bits(rng, rsa_bits - 8);
  const BigUint exp = BigUint::random_bits(rng, rsa_bits);
  (void)mont.pow(base, exp, ws);  // grow the workspace once
  const auto pow_op = [&] { (void)mont.pow(base, exp, ws); };
  const auto t_pow = bench::timed_median(warmup, reps, pow_op);
  const double pow_allocs = bench::allocs_per_op(4, pow_op);

  // --- RSA through long-lived contexts --------------------------------------
  Rng key_rng(42);
  const RsaKeyPair kp = rsa_generate(key_rng, rsa_bits);
  const RsaSignContext sign_ctx(kp.priv);
  const Bytes msg = {'a', 'l', 'l', 'o', 'c'};
  const Bytes sig = sign_ctx.sign(msg);
  const auto sign_op = [&] { (void)sign_ctx.sign(msg); };
  const auto t_sign = bench::timed_median(warmup, reps, sign_op);
  const double sign_allocs = bench::allocs_per_op(4, sign_op);

  RsaSigner signer(kp);
  SigVerifyCache cache;
  const auto verifier = signer.verifier_with_cache(cache);
  if (!verifier->verify(msg, sig)) {
    std::fprintf(stderr, "FAIL: signature did not verify\n");
    return 1;
  }
  const auto hit_loop = [&] {
    for (int i = 0; i < 64; ++i) (void)verifier->verify(msg, sig);
  };
  const auto t_hit = bench::timed_median(warmup, reps, hit_loop);
  const double hit_allocs_raw = bench::allocs_per_op(1, hit_loop);
  const double hit_allocs =
      hit_allocs_raw < 0 ? hit_allocs_raw : hit_allocs_raw / 64.0;

  // --- block serialization (reserved exact wire size) -----------------------
  const chain::BlockPtr block = make_block(signer, plans_per_block);
  const auto serialize_op = [&] { (void)block->serialize(); };
  const auto t_serialize = bench::timed_median(warmup, reps, serialize_op);
  const double serialize_allocs = bench::allocs_per_op(8, serialize_op);

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t_start)
                            .count();
  const std::string envelope = bench::bench_envelope(
      "alloc", wall_s,
      {bench::json_phase("mont_mul_x" + std::to_string(mont_iters), t_mont_mul,
                         mul_allocs),
       bench::json_phase("mont_pow", t_pow, pow_allocs),
       bench::json_phase("rsa_sign_context", t_sign, sign_allocs),
       bench::json_phase("verify_cache_hit_x64", t_hit, hit_allocs),
       bench::json_phase("block_serialize_" + std::to_string(plans_per_block) +
                             "plans",
                         t_serialize, serialize_allocs)},
      {bench::json_field("rsa_bits", static_cast<double>(rsa_bits), 0),
       bench::json_field("alloc_counting",
                         std::string(util::alloc_counting_enabled() ? "on"
                                                                    : "off"))});
  if (!bench::json_well_formed(envelope)) {
    std::fprintf(stderr, "FAIL: emitted envelope is not well-formed JSON\n");
    return 1;
  }
  const std::string path =
      opt.smoke ? "BENCH_alloc.smoke.json" : "BENCH_alloc.json";
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
    // The whole point of the counting build: the steady-state primitives
    // must not allocate at all. Enforced here too so the perf smoke catches
    // a regression even if the gtest gates are filtered out of a CI run.
    if (util::alloc_counting_enabled() &&
        (mul_allocs != 0 || pow_allocs != 0 || hit_allocs != 0)) {
      std::fprintf(stderr,
                   "FAIL: hot path allocated (mont_mul %.2f, pow %.2f, "
                   "cache-hit verify %.2f per op)\n",
                   mul_allocs, pow_allocs, hit_allocs);
      return 1;
    }
    std::printf("smoke OK: envelope round-trips and parses\n");
  } else if (util::alloc_counting_enabled()) {
    std::printf("allocs/op: mont_mul %.2f, pow %.2f, sign %.2f, "
                "cache-hit verify %.2f, block serialize %.2f\n",
                mul_allocs, pow_allocs, sign_allocs, hit_allocs,
                serialize_allocs);
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
