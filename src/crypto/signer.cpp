#include "crypto/signer.h"

#include "crypto/verify_cache.h"

namespace nwade::crypto {

namespace {

class RsaVerifier final : public Verifier {
 public:
  /// A non-null `cache` memoizes verdicts; nullptr verifies every call.
  RsaVerifier(RsaPublicKey pub, SigVerifyCache* cache)
      : ctx_(std::move(pub)), cache_(cache) {}
  bool verify(std::span<const std::uint8_t> msg,
              std::span<const std::uint8_t> sig) const override {
    if (cache_ == nullptr) return ctx_.verify(msg, sig);
    // One modexp per distinct (key, msg, sig) per cache: every other
    // receiver of the same broadcast block hits the cache. Pure-function
    // caching, so the answer is identical either way.
    const Digest key = SigVerifyCache::key_of(ctx_.fingerprint(), msg, sig);
    if (const auto cached = cache_->lookup(key)) return *cached;
    const bool ok = ctx_.verify(msg, sig);
    cache_->store(key, ok);
    return ok;
  }

 private:
  RsaVerifyContext ctx_;
  SigVerifyCache* cache_;
};

class HmacVerifier final : public Verifier {
 public:
  explicit HmacVerifier(Bytes key) : key_(std::move(key)) {}
  bool verify(std::span<const std::uint8_t> msg,
              std::span<const std::uint8_t> sig) const override {
    const Digest mac = hmac_sha256(key_, msg);
    return sig.size() == mac.size() && std::equal(sig.begin(), sig.end(), mac.begin());
  }

 private:
  Bytes key_;
};

}  // namespace

RsaSigner::RsaSigner(RsaKeyPair key_pair)
    : key_(std::move(key_pair)),
      sign_ctx_(key_.priv),
      verifier_(std::make_shared<RsaVerifier>(key_.pub, nullptr)) {}

std::unique_ptr<RsaSigner> RsaSigner::generate(Rng& rng, int modulus_bits) {
  return std::make_unique<RsaSigner>(rsa_generate(rng, modulus_bits));
}

Bytes RsaSigner::sign(std::span<const std::uint8_t> msg) const {
  return sign_ctx_.sign(msg);
}

std::shared_ptr<const Verifier> RsaSigner::verifier() const { return verifier_; }

std::shared_ptr<const Verifier> RsaSigner::verifier_with_cache(
    SigVerifyCache& cache) const {
  return std::make_shared<RsaVerifier>(key_.pub, &cache);
}

HmacSigner::HmacSigner(Bytes key)
    : key_(std::move(key)), verifier_(std::make_shared<HmacVerifier>(key_)) {}

Bytes HmacSigner::sign(std::span<const std::uint8_t> msg) const {
  const Digest mac = hmac_sha256(key_, msg);
  return Bytes(mac.begin(), mac.end());
}

std::shared_ptr<const Verifier> HmacSigner::verifier() const { return verifier_; }

}  // namespace nwade::crypto
