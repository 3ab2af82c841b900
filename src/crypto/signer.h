// Signer abstraction: the NWADE protocol layer signs and verifies through this
// interface so the simulator can choose between real RSA (paper-faithful cost,
// used by the blockchain benchmarks) and a fast HMAC-based signer (used where
// crypto cost is not what is being measured, e.g. protocol unit tests).
#pragma once

#include <memory>

#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace nwade::crypto {

class SigVerifyCache;

/// Verification half of a signer; safe to share between many vehicles.
class Verifier {
 public:
  virtual ~Verifier() = default;
  virtual bool verify(std::span<const std::uint8_t> msg,
                      std::span<const std::uint8_t> sig) const = 0;
};

/// Signing half; held only by the key owner (the intersection manager).
class Signer {
 public:
  virtual ~Signer() = default;
  virtual Bytes sign(std::span<const std::uint8_t> msg) const = 0;
  virtual std::shared_ptr<const Verifier> verifier() const = 0;

  /// A verifier that memoizes its verdicts in `cache` (each World hands in
  /// its own). `cache` must outlive the returned verifier. Signers that do
  /// not memoize (HMAC) return their plain verifier.
  virtual std::shared_ptr<const Verifier> verifier_with_cache(
      SigVerifyCache& cache) const {
    (void)cache;
    return verifier();
  }
};

/// Real RSA signer (paper setting: 2048-bit key, SHA-256).
class RsaSigner final : public Signer {
 public:
  explicit RsaSigner(RsaKeyPair key_pair);

  /// Convenience: generates a fresh key pair from `rng`.
  static std::unique_ptr<RsaSigner> generate(Rng& rng, int modulus_bits = 2048);

  Bytes sign(std::span<const std::uint8_t> msg) const override;
  /// Uncached: each verify() through it pays the modexp.
  std::shared_ptr<const Verifier> verifier() const override;
  std::shared_ptr<const Verifier> verifier_with_cache(
      SigVerifyCache& cache) const override;

  const RsaPublicKey& public_key() const { return key_.pub; }

 private:
  RsaKeyPair key_;
  RsaSignContext sign_ctx_;  ///< CRT Montgomery contexts, built once per key
  std::shared_ptr<const Verifier> verifier_;
};

/// HMAC-SHA256 "signer" for tests: same interface, symmetric key. A vehicle
/// holding the verifier could technically forge, which is irrelevant for the
/// protocol-logic tests that use it.
class HmacSigner final : public Signer {
 public:
  explicit HmacSigner(Bytes key);

  Bytes sign(std::span<const std::uint8_t> msg) const override;
  std::shared_ptr<const Verifier> verifier() const override;

 private:
  Bytes key_;
  std::shared_ptr<const Verifier> verifier_;
};

}  // namespace nwade::crypto
