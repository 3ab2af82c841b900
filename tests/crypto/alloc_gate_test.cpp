// Allocation gates for the crypto hot paths (ctest label: alloc).
//
// These tests meter the thread-local heap-allocation counter across a warmed
// steady-state operation and assert the delta is exactly zero — turning the
// "hot paths do not allocate" property from a claim into a regression test.
// They only measure in builds configured with -DNWADE_COUNT_ALLOCS=ON; in
// the default build (no counting operator new) they skip, so tier-1 runs
// stay green either way.
#include <gtest/gtest.h>

#include <vector>

#include "chain/block.h"
#include "crypto/bignum.h"
#include "crypto/rsa.h"
#include "crypto/signer.h"
#include "crypto/verify_cache.h"
#include "util/alloc_stats.h"
#include "util/rng.h"

namespace nwade::crypto {
namespace {

#define REQUIRE_COUNTING()                                              \
  if (!util::alloc_counting_enabled()) {                                \
    GTEST_SKIP() << "build with -DNWADE_COUNT_ALLOCS=ON to arm this gate"; \
  }

/// One RSA-2048 key pair for the whole binary (keygen is seconds, the gates
/// are microseconds).
const RsaKeyPair& test_key() {
  static const RsaKeyPair kp = [] {
    Rng rng(0xA110C47E5EED);
    return rsa_generate(rng, 2048);
  }();
  return kp;
}

BigUint random_odd_modulus(Rng& rng, int bits) {
  BigUint m = BigUint::random_bits(rng, bits);
  if (!m.is_odd()) m = m + BigUint(1);
  return m;
}

TEST(AllocGate, SteadyStateMontMulIsAllocationFree) {
  REQUIRE_COUNTING();
  Rng rng(1);
  const Montgomery mont(random_odd_modulus(rng, 2048));
  const std::size_t n = mont.limbs();
  std::vector<std::uint64_t> a(n), b(n), dst(n), scratch(n + 2);
  for (auto& l : a) l = rng.next_u64();
  for (auto& l : b) l = rng.next_u64();
  a[n - 1] = 0;  // keep operands < modulus (msb of the modulus is set)
  b[n - 1] = 0;
  mont.mont_mul(dst.data(), a.data(), b.data(), scratch.data());  // warm-up

  const std::uint64_t before = util::thread_alloc_count();
  for (int i = 0; i < 100; ++i) {
    mont.mont_mul(dst.data(), dst.data(), b.data(), scratch.data());
  }
  EXPECT_EQ(util::thread_alloc_count() - before, 0u);
}

TEST(AllocGate, SteadyStateMontPowIsAllocationFree) {
  REQUIRE_COUNTING();
  Rng rng(2);
  const Montgomery mont(random_odd_modulus(rng, 2048));
  MontWorkspace ws;
  const BigUint base = BigUint::random_bits(rng, 2040);
  const BigUint exp = BigUint::random_bits(rng, 256);
  (void)mont.pow(base, exp, ws);  // grows the workspace once

  const std::uint64_t before = util::thread_alloc_count();
  const BigUint r = mont.pow(base, exp, ws);
  EXPECT_EQ(util::thread_alloc_count() - before, 0u);
  EXPECT_FALSE(r.is_zero());
}

TEST(AllocGate, CacheHitRsa2048VerifyIsAllocationFree) {
  REQUIRE_COUNTING();
  const RsaKeyPair& kp = test_key();
  RsaSigner signer(kp);
  const Bytes msg = {'g', 'a', 't', 'e'};
  const Bytes sig = signer.sign(msg);
  SigVerifyCache cache;
  const auto verifier = signer.verifier_with_cache(cache);
  ASSERT_TRUE(verifier->verify(msg, sig));  // miss: computes + populates

  const std::uint64_t before = util::thread_alloc_count();
  const bool ok = verifier->verify(msg, sig);  // hit: key_of + map lookup
  EXPECT_EQ(util::thread_alloc_count() - before, 0u);
  EXPECT_TRUE(ok);
}

TEST(AllocGate, CacheHitRsa2048BlockVerifySignatureIsAllocationFree) {
  REQUIRE_COUNTING();
  RsaSigner signer(test_key());
  aim::TravelPlan plan;
  plan.vehicle = VehicleId{1};
  plan.segments = {aim::PlanSegment{0, 0.0, 12.0}};
  const chain::BlockPtr block =
      chain::Block::package(1, Digest{}, 1'000, {plan}, signer, {VehicleId{9}});
  SigVerifyCache cache;
  const auto verifier = signer.verifier_with_cache(cache);
  ASSERT_TRUE(block->verify_signature(*verifier));  // miss: computes + populates

  // Hit: the signed payload is read in place, never copied.
  const std::uint64_t before = util::thread_alloc_count();
  const bool ok = block->verify_signature(*verifier);
  EXPECT_EQ(util::thread_alloc_count() - before, 0u);
  EXPECT_TRUE(ok);
}

TEST(AllocGate, VerifyCacheKeyOfIsAllocationFree) {
  REQUIRE_COUNTING();
  Digest fp{};
  const Bytes msg(128, 0xAB);
  const Bytes sig(256, 0xCD);
  (void)SigVerifyCache::key_of(fp, msg, sig);  // warm-up

  const std::uint64_t before = util::thread_alloc_count();
  const Digest key = SigVerifyCache::key_of(fp, msg, sig);
  EXPECT_EQ(util::thread_alloc_count() - before, 0u);
  EXPECT_NE(key, Digest{});
}

TEST(AllocGate, InlineBigUintArithmeticIsAllocationFree) {
  REQUIRE_COUNTING();
  Rng rng(3);
  // Everything here stays within the 2048-bit + carry inline capacity:
  // 2048-bit add/sub, 1024x1024 mul, 2048/1024 divmod.
  const BigUint a = BigUint::random_bits(rng, 2048);
  const BigUint b = BigUint::random_bits(rng, 2047);
  const BigUint c = BigUint::random_bits(rng, 1024);
  const BigUint d = BigUint::random_bits(rng, 1024);

  const std::uint64_t before = util::thread_alloc_count();
  const BigUint sum = a + b;
  const BigUint diff = a - b;
  const BigUint prod = c * d;
  const auto [q, r] = a.divmod(c);
  const int cmp = sum.compare(diff);
  EXPECT_EQ(util::thread_alloc_count() - before, 0u);
  EXPECT_NE(cmp, 0);
  EXPECT_EQ(q * c + r, a);
  EXPECT_FALSE(prod.is_zero());
}

}  // namespace
}  // namespace nwade::crypto
