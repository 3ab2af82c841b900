// The travel-plan blockchain block (paper Eq. 1 and Fig. 3):
//
//   B_i = < s_i, h_{i-1}, tau_i, R_i >
//
// s_i     signature over <h_{i-1}, tau_i, R_i> by the intersection manager
// h_{i-1} SHA-256 of the previous block
// tau_i   timestamp of the processing window
// R_i     Merkle root over the window's travel plans (plans ride along as
//         the leaves, so receivers can re-derive and check R_i)
//
// A Block is immutable once built, and every holder (the IM's window, each
// vehicle's store, every broadcast and block response) shares the one object
// through a BlockPtr. The derived values (signed payload, hash, the Merkle
// root recomputed from the plans, wire size) are therefore computed once, in
// the constructor, and concurrent readers need no lock. A test that forges a
// tampered block edits a fields() copy and builds a new Block from it.
#pragma once

#include <memory>
#include <vector>

#include "aim/plan.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "util/archive.h"
#include "util/types.h"

namespace nwade::chain {

/// Sequence number of a block within one intersection's chain (genesis = 0).
using BlockSeq = std::uint64_t;

class Block;
using BlockPtr = std::shared_ptr<const Block>;

/// A block's plain fields, as signed and sent on the wire.
struct BlockFields {
  Bytes signature;               ///< s_i
  crypto::Digest prev_hash{};    ///< h_{i-1}
  Tick timestamp{0};             ///< tau_i
  crypto::Digest merkle_root{};  ///< R_i
  BlockSeq seq{0};
  /// Vehicles whose earlier plans are void (confirmed threats). Carried in
  /// every block (and covered by the signature) so vehicles that join after
  /// an evacuation alert do not treat a revoked plan as live when checking
  /// new blocks for conflicts.
  std::vector<VehicleId> revoked;
  /// The window's travel plans (the Merkle leaves).
  std::vector<aim::TravelPlan> plans;
};

class Block {
 public:
  /// Builds a block from its fields as given: nothing is re-signed, so a
  /// tampered field shows up as a failed verify_signature()/verify_merkle().
  explicit Block(BlockFields fields);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  /// Builds and signs a block over a window's plans.
  static BlockPtr package(BlockSeq seq, const crypto::Digest& prev_hash, Tick timestamp,
                          std::vector<aim::TravelPlan> plans,
                          const crypto::Signer& signer,
                          std::vector<VehicleId> revoked = {});

  /// Decodes serialize()'s bytes; nullptr on malformed input.
  static BlockPtr deserialize(const Bytes& data);

  const Bytes signature;
  const crypto::Digest prev_hash;
  const Tick timestamp;
  const crypto::Digest merkle_root;
  const BlockSeq seq;
  const std::vector<VehicleId> revoked;

  const std::vector<aim::TravelPlan>& plans() const { return plans_; }

  /// A copy of the fields, to edit and rebuild from.
  BlockFields fields() const;

  /// The bytes that s_i signs: <seq, h_{i-1}, tau_i, R_i, revoked>.
  const Bytes& signed_payload() const { return payload_; }

  /// SHA-256 over the header (signature + signed payload); the next block's
  /// h_{i-1}.
  const crypto::Digest& hash() const { return hash_; }

  /// Signature check against the intersection manager's public key.
  bool verify_signature(const crypto::Verifier& verifier) const;

  /// The Merkle root recomputed from the plans equals `merkle_root`.
  bool verify_merkle() const { return computed_root_ == merkle_root; }

  /// The first plan for a given vehicle inside this block, if present.
  const aim::TravelPlan* plan_for(VehicleId id) const;

  /// Merkle membership proof for the plan at `index` (see MerkleTree).
  crypto::MerkleProof prove_plan(std::size_t index) const;

  Bytes serialize() const;

  /// Exactly serialize().size() (network-load accounting).
  std::size_t wire_size() const { return wire_size_; }

  /// Writes serialize()'s bytes in place (chain::io_block); decoding goes
  /// through deserialize(), which shares the same field list.
  static void io(WriteArchive& ar, const Block& b);

 private:
  /// The fields constructor, given the Merkle root recomputed from the plans
  /// and the signed payload (package() has built both to sign).
  Block(BlockFields&& fields, const crypto::Digest& computed_root, Bytes payload);

  const std::vector<aim::TravelPlan> plans_;
  const crypto::Digest computed_root_;
  const Bytes payload_;
  const crypto::Digest hash_;
  const std::size_t wire_size_;
};

}  // namespace nwade::chain
