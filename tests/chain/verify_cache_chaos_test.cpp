// Chaos coverage for cached block verification: the signature-verification
// cache must never let a forged block ride its honest twin's cached verdict.
#include <gtest/gtest.h>

#include "chain/block.h"
#include "chain/store.h"
#include "crypto/verify_cache.h"
#include "util/rng.h"

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
  static crypto::RsaSigner* signer_;
  crypto::SigVerifyCache cache_;
};

crypto::RsaSigner* VerifyCacheChaosTest::signer_ = nullptr;

TEST_F(VerifyCacheChaosTest, TamperedTwinRejectedAfterHonestHit) {
  const auto& cache = cache_;
  const auto verifier = signer_->verifier_with_cache(cache_);
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
  const auto verifier = signer_->verifier_with_cache(cache_);
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

}  // namespace
}  // namespace nwade::chain
