// SigVerifyCache contract: pure-function memoization with exact hit/miss
// accounting, FIFO bounded capacity that survives a save/restore, and
// key-rotation safety. Plus the RsaVerifyContext fast path, which must agree
// with rsa_verify bit-for-bit.
#include <gtest/gtest.h>

#include "crypto/rsa.h"
#include "crypto/signer.h"
#include "crypto/verify_cache.h"
#include "util/archive.h"
#include "util/rng.h"

namespace nwade::crypto {
namespace {

Digest digest_of(std::uint8_t fill) {
  Digest d{};
  d.fill(fill);
  return d;
}

TEST(SigVerifyCache, HitAndMissAccounting) {
  SigVerifyCache cache(8);
  const Digest k1 = digest_of(1);
  EXPECT_FALSE(cache.lookup(k1).has_value());
  cache.store(k1, true);
  const auto hit = cache.lookup(k1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit);

  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SigVerifyCache, NegativeVerdictsAreCachedToo) {
  SigVerifyCache cache(8);
  cache.store(digest_of(2), false);
  const auto hit = cache.lookup(digest_of(2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(*hit);
}

TEST(SigVerifyCache, FifoEvictionKeepsSizeBounded) {
  SigVerifyCache cache(4);
  for (std::uint8_t i = 0; i < 10; ++i) cache.store(digest_of(i), true);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 6u);
  // Oldest six gone, newest four retained.
  EXPECT_FALSE(cache.lookup(digest_of(0)).has_value());
  EXPECT_FALSE(cache.lookup(digest_of(5)).has_value());
  EXPECT_TRUE(cache.lookup(digest_of(6)).has_value());
  EXPECT_TRUE(cache.lookup(digest_of(9)).has_value());
}

TEST(SigVerifyCache, CapacityZeroDisablesCaching) {
  SigVerifyCache cache(0);
  cache.store(digest_of(3), true);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(digest_of(3)).has_value());
}

TEST(SigVerifyCache, RoundTripKeepsFifoOrderAcrossEntryLists) {
  // Keys in several of the 16 wire lists (byte 8 picks the list), stored
  // out of list order, with evictions behind them.
  SigVerifyCache cache(4);
  for (const std::uint8_t fill : {3, 17, 5, 33, 2, 19}) {
    cache.store(digest_of(fill), fill % 2 == 1);
  }
  const Bytes saved = to_bytes(cache);

  SigVerifyCache restored;
  ByteReader r(saved);
  ASSERT_TRUE(load(r, restored));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(to_bytes(restored), saved);
  EXPECT_EQ(restored.size(), 4u);
  EXPECT_EQ(restored.capacity(), 4u);
  EXPECT_EQ(restored.stats().evictions, 2u);

  // The next store evicts the oldest survivor in both, whatever its list.
  cache.store(digest_of(40), true);
  restored.store(digest_of(40), true);
  EXPECT_EQ(to_bytes(restored), to_bytes(cache));
  EXPECT_FALSE(restored.lookup(digest_of(5)).has_value());
  EXPECT_TRUE(restored.lookup(digest_of(33)).has_value());
}

TEST(SigVerifyCache, KeyOfSeparatesEveryInput) {
  const Bytes msg_a{1, 2, 3};
  const Bytes msg_b{1, 2, 4};
  const Bytes sig_a{9, 9};
  const Bytes sig_b{9, 8};
  const Digest fp_a = digest_of(10);
  const Digest fp_b = digest_of(11);

  const Digest base = SigVerifyCache::key_of(fp_a, msg_a, sig_a);
  EXPECT_EQ(base, SigVerifyCache::key_of(fp_a, msg_a, sig_a));
  EXPECT_NE(base, SigVerifyCache::key_of(fp_b, msg_a, sig_a));  // key rotated
  EXPECT_NE(base, SigVerifyCache::key_of(fp_a, msg_b, sig_a));  // msg tampered
  EXPECT_NE(base, SigVerifyCache::key_of(fp_a, msg_a, sig_b));  // sig tampered
  // Shifting a byte across the msg/sig boundary must change the key: the
  // encoding length-prefixes the message.
  const Bytes msg_long{1, 2, 3, 9};
  const Bytes sig_short{9};
  EXPECT_NE(SigVerifyCache::key_of(fp_a, msg_a, sig_a),
            SigVerifyCache::key_of(fp_a, msg_long, sig_short));
}

class RsaVerifyContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(424242);
    key_pair_ = new RsaKeyPair(rsa_generate(rng, 512));
  }
  static void TearDownTestSuite() {
    delete key_pair_;
    key_pair_ = nullptr;
  }
  static RsaKeyPair* key_pair_;
};

RsaKeyPair* RsaVerifyContextTest::key_pair_ = nullptr;

TEST_F(RsaVerifyContextTest, AgreesWithRsaVerify) {
  const RsaVerifyContext ctx(key_pair_->pub);
  const Bytes msg{'h', 'e', 'l', 'l', 'o'};
  const Bytes sig = rsa_sign(key_pair_->priv, msg);

  EXPECT_TRUE(ctx.verify(msg, sig));
  EXPECT_TRUE(rsa_verify(key_pair_->pub, msg, sig));

  Bytes tampered_sig = sig;
  tampered_sig[0] ^= 1;
  EXPECT_EQ(ctx.verify(msg, tampered_sig),
            rsa_verify(key_pair_->pub, msg, tampered_sig));
  EXPECT_FALSE(ctx.verify(msg, tampered_sig));

  const Bytes other_msg{'h', 'e', 'l', 'l', 'O'};
  EXPECT_FALSE(ctx.verify(other_msg, sig));

  const Bytes short_sig(sig.begin(), sig.end() - 1);
  EXPECT_FALSE(ctx.verify(msg, short_sig));
  EXPECT_FALSE(rsa_verify(key_pair_->pub, msg, short_sig));
}

TEST_F(RsaVerifyContextTest, FingerprintChangesWithKey) {
  Rng rng(77);
  const RsaKeyPair other = rsa_generate(rng, 512);
  const RsaVerifyContext a(key_pair_->pub);
  const RsaVerifyContext b(other.pub);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), RsaVerifyContext(key_pair_->pub).fingerprint());
}

// The cache is the one the verifier is handed; each World hands in its own.
TEST_F(RsaVerifyContextTest, RsaVerifierPopulatesProcessCache) {
  SigVerifyCache cache;
  const RsaSigner signer(*key_pair_);
  const auto verifier = signer.verifier_with_cache(cache);
  const Bytes msg{'b', 'l', 'o', 'c', 'k'};
  const Bytes sig = signer.sign(msg);

  EXPECT_TRUE(verifier->verify(msg, sig));   // miss -> modexp -> store
  EXPECT_TRUE(verifier->verify(msg, sig));   // hit
  EXPECT_TRUE(verifier->verify(msg, sig));   // hit
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);

  // A second verifier for the SAME key shares the entries (fingerprint
  // equality), which is exactly the N-receivers-one-modexp effect.
  const auto verifier2 = RsaSigner(*key_pair_).verifier_with_cache(cache);
  EXPECT_TRUE(verifier2->verify(msg, sig));
  EXPECT_EQ(cache.stats().hits, 3u);

  // A different key never aliases: same msg/sig, fresh fingerprint -> miss.
  Rng rng(88);
  const RsaSigner other(rsa_generate(rng, 512));
  EXPECT_FALSE(other.verifier_with_cache(cache)->verify(msg, sig));
  EXPECT_EQ(cache.stats().misses, 2u);

  // The plain verifier memoizes nowhere.
  EXPECT_TRUE(signer.verifier()->verify(msg, sig));
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace nwade::crypto
