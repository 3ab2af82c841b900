// Chaos coverage for the cached block-verification fan-out: the
// signature-verification cache must never let a forged block ride its
// honest twin's cached verdict, and the parallel fan-out must agree with
// the sequential path under every pool size (TSan vets the synchronization
// when this suite runs under SANITIZE=thread).
#include <gtest/gtest.h>

#include "chain/block.h"
#include "chain/fanout.h"
#include "chain/store.h"
#include "crypto/verify_cache.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace nwade::chain {
namespace {

aim::TravelPlan make_plan(std::uint64_t vehicle, Tick t) {
  aim::TravelPlan p;
  p.vehicle = VehicleId{vehicle};
  p.route_id = static_cast<int>(vehicle % 4);
  p.issued_at = t;
  p.core_entry = t + 4'000;
  p.core_exit = t + 7'000;
  p.segments = {aim::PlanSegment{t, 0.0, 11.0}};
  return p;
}

BlockPtr make_signed_block(const crypto::Signer& signer, BlockSeq seq,
                           const crypto::Digest& prev, int n_plans) {
  std::vector<aim::TravelPlan> plans;
  for (int i = 0; i < n_plans; ++i) {
    plans.push_back(make_plan(seq * 100 + static_cast<std::uint64_t>(i) + 1,
                              static_cast<Tick>(seq) * 1000));
  }
  return Block::package(seq, prev, static_cast<Tick>(seq) * 1000, std::move(plans),
                        signer);
}

class VerifyCacheChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(31337);
    signer_ = new crypto::RsaSigner(crypto::rsa_generate(rng, 1024));
  }
  static void TearDownTestSuite() {
    delete signer_;
    signer_ = nullptr;
  }
  void SetUp() override {
    crypto::SigVerifyCache::instance().clear();
    crypto::SigVerifyCache::instance().reset_stats();
  }
  void TearDown() override {
    crypto::SigVerifyCache::instance().clear();
    crypto::SigVerifyCache::instance().reset_stats();
  }
  static crypto::RsaSigner* signer_;
};

crypto::RsaSigner* VerifyCacheChaosTest::signer_ = nullptr;

TEST_F(VerifyCacheChaosTest, TamperedTwinRejectedAfterHonestHit) {
  auto& cache = crypto::SigVerifyCache::instance();
  const auto verifier = signer_->verifier();
  const BlockPtr honest_ptr = make_signed_block(*signer_, 1, crypto::Digest{}, 4);
  const Block& honest = *honest_ptr;

  // Honest block: first verification misses and computes, second hits.
  EXPECT_TRUE(honest.verify_signature(*verifier));
  EXPECT_TRUE(honest.verify_signature(*verifier));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Forge a twin: same plans, same signature, one header field altered.
  // Its signed payload differs, so its cache key cannot alias the honest
  // entry — the forgery is recomputed (miss) and rejected.
  BlockFields f = honest.fields();
  f.timestamp += 1;
  const Block forged(std::move(f));
  EXPECT_FALSE(forged.verify_signature(*verifier));
  EXPECT_EQ(cache.stats().misses, 2u);

  // And the rejection is itself cached without poisoning the honest entry.
  EXPECT_FALSE(forged.verify_signature(*verifier));
  EXPECT_TRUE(honest.verify_signature(*verifier));
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST_F(VerifyCacheChaosTest, TamperedPlansStillRejectedByMerkle) {
  const auto verifier = signer_->verifier();
  const BlockPtr honest = make_signed_block(*signer_, 2, crypto::Digest{}, 4);
  EXPECT_TRUE(honest->verify_signature(*verifier));
  EXPECT_TRUE(honest->verify_merkle());
  BlockFields f = honest->fields();
  f.plans[1].segments[0].v_mps = 99.0;
  const auto forged = std::make_shared<const Block>(std::move(f));
  // Signature still verifies (the payload only carries the Merkle root),
  // but the recomputed tree exposes the forged instruction.
  EXPECT_TRUE(forged->verify_signature(*verifier));
  EXPECT_FALSE(forged->verify_merkle());

  BlockStore store;
  EXPECT_FALSE(store.append(forged, *verifier).has_value());
}

TEST_F(VerifyCacheChaosTest, FanoutMatchesSequentialForEveryPoolSize) {
  auto& cache = crypto::SigVerifyCache::instance();
  const auto verifier_sp = signer_->verifier();
  const BlockPtr block = make_signed_block(*signer_, 3, crypto::Digest{}, 8);

  // 64 receivers sharing one IM verifier (the simulator's shape).
  std::vector<const crypto::Verifier*> verifiers(64, verifier_sp.get());

  for (const int threads : {1, 2, 4}) {
    cache.clear();
    cache.reset_stats();
    util::WorkerPool pool(threads);
    const auto results = fanout_verify(*block, verifiers, pool);
    ASSERT_EQ(results.size(), verifiers.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], 1) << "receiver " << i << ", pool " << threads;
    }
    const auto s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, verifiers.size()) << "pool " << threads;
    if (threads <= 1) {
      // Sequential: exactly one modexp, everyone else hits the cache.
      EXPECT_EQ(s.misses, 1u);
    } else {
      // Concurrent receivers can each miss before the first store lands,
      // but never more of them than there are threads racing.
      EXPECT_GE(s.misses, 1u);
      EXPECT_LE(s.misses, static_cast<std::uint64_t>(threads) + 1);
    }
  }
}

TEST_F(VerifyCacheChaosTest, FanoutRejectsForgeryUnderThreads) {
  const auto verifier_sp = signer_->verifier();
  BlockFields f = make_signed_block(*signer_, 4, crypto::Digest{}, 4)->fields();
  f.seq += 1;  // breaks the signature
  const Block forged(std::move(f));
  std::vector<const crypto::Verifier*> verifiers(32, verifier_sp.get());
  util::WorkerPool pool(4);
  const auto results = fanout_verify(forged, verifiers, pool);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], 0);
}

}  // namespace
}  // namespace nwade::chain
