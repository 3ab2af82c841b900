#include "chain/block.h"

#include <utility>

namespace nwade::chain {
namespace {

crypto::MerkleTree tree_of(const std::vector<aim::TravelPlan>& plans) {
  std::vector<Bytes> leaves;
  leaves.reserve(plans.size());
  for (const aim::TravelPlan& p : plans) leaves.push_back(p.serialize());
  return crypto::MerkleTree(leaves);
}

Bytes payload_of(BlockSeq seq, const crypto::Digest& prev_hash, Tick timestamp,
                 const crypto::Digest& merkle_root,
                 const std::vector<VehicleId>& revoked) {
  // u64 seq + length-prefixed 32-byte hashes + i64 timestamp + u32 count +
  // u64 ids.
  ByteWriter w;
  w.reserve(92 + 8 * revoked.size());
  w.u64(seq);
  w.bytes(prev_hash);
  w.i64(timestamp);
  w.bytes(merkle_root);
  w.u32(static_cast<std::uint32_t>(revoked.size()));
  for (VehicleId v : revoked) w.u64(v.value);
  return w.take();
}

crypto::Digest hash_of(const Bytes& signature, const Bytes& payload) {
  crypto::Sha256 h;
  h.update(signature);
  h.update(payload);
  return h.finish();
}

/// serialize()'s exact size: the header (100 bytes + signature + revoked
/// ids) plus each length-prefixed plan.
std::size_t wire_size_of(const Bytes& signature, const std::vector<VehicleId>& revoked,
                         const std::vector<aim::TravelPlan>& plans) {
  std::size_t total = 100 + signature.size() + 8 * revoked.size();
  for (const aim::TravelPlan& p : plans) total += 4 + p.wire_size();
  return total;
}

}  // namespace

// std::move(f) only binds the rvalue reference: the root and the payload read
// f before the delegated constructor's member initializers move from it.
Block::Block(BlockFields f)
    : Block(std::move(f), tree_of(f.plans).root(),
            payload_of(f.seq, f.prev_hash, f.timestamp, f.merkle_root, f.revoked)) {}

Block::Block(BlockFields&& f, const crypto::Digest& computed_root, Bytes payload)
    : signature(std::move(f.signature)),
      prev_hash(f.prev_hash),
      timestamp(f.timestamp),
      merkle_root(f.merkle_root),
      seq(f.seq),
      revoked(std::move(f.revoked)),
      plans_(std::move(f.plans)),
      computed_root_(computed_root),
      payload_(std::move(payload)),
      hash_(hash_of(signature, payload_)),
      wire_size_(wire_size_of(signature, revoked, plans_)) {}

BlockFields Block::fields() const {
  return BlockFields{signature, prev_hash, timestamp, merkle_root, seq, revoked, plans_};
}

BlockPtr Block::package(BlockSeq seq, const crypto::Digest& prev_hash, Tick timestamp,
                        std::vector<aim::TravelPlan> plans,
                        const crypto::Signer& signer, std::vector<VehicleId> revoked) {
  BlockFields f;
  f.seq = seq;
  f.prev_hash = prev_hash;
  f.timestamp = timestamp;
  f.merkle_root = tree_of(plans).root();
  Bytes payload = payload_of(seq, prev_hash, timestamp, f.merkle_root, revoked);
  f.signature = signer.sign(payload);
  f.revoked = std::move(revoked);
  f.plans = std::move(plans);
  // Not make_shared: the constructor that takes the root and payload is private.
  return BlockPtr(new Block(std::move(f), f.merkle_root, std::move(payload)));
}

bool Block::verify_signature(const crypto::Verifier& verifier) const {
  return verifier.verify(payload_, signature);
}

const aim::TravelPlan* Block::plan_for(VehicleId id) const {
  for (const aim::TravelPlan& p : plans_) {
    if (p.vehicle == id) return &p;
  }
  return nullptr;
}

crypto::MerkleProof Block::prove_plan(std::size_t index) const {
  return tree_of(plans_).prove(index);
}

Bytes Block::serialize() const {
  // Reserving the exact total turns the per-plan appends from repeated
  // geometric regrowth (quadratic copying on large windows) into one
  // allocation.
  ByteWriter w;
  w.reserve(wire_size_);
  w.bytes(signature);
  w.bytes(prev_hash);
  w.i64(timestamp);
  w.bytes(merkle_root);
  w.u64(seq);
  w.u32(static_cast<std::uint32_t>(revoked.size()));
  for (VehicleId v : revoked) w.u64(v.value);
  w.u32(static_cast<std::uint32_t>(plans_.size()));
  for (const aim::TravelPlan& p : plans_) w.bytes(p.serialize());
  return w.take();
}

BlockPtr Block::deserialize(const Bytes& data) {
  ByteReader r(data);
  BlockFields f;
  f.signature = r.bytes();
  const Bytes prev = r.bytes();
  if (prev.size() != f.prev_hash.size()) return nullptr;
  std::copy(prev.begin(), prev.end(), f.prev_hash.begin());
  f.timestamp = r.i64();
  const Bytes root = r.bytes();
  if (root.size() != f.merkle_root.size()) return nullptr;
  std::copy(root.begin(), root.end(), f.merkle_root.begin());
  f.seq = r.u64();
  const std::uint32_t n_revoked = r.u32();
  if (n_revoked > 100000) return nullptr;
  f.revoked.reserve(n_revoked);
  for (std::uint32_t i = 0; i < n_revoked; ++i) f.revoked.push_back(VehicleId{r.u64()});
  const std::uint32_t n = r.u32();
  if (n > 100000) return nullptr;
  f.plans.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    auto plan = aim::TravelPlan::deserialize(r.bytes());
    if (!plan) return nullptr;
    f.plans.push_back(std::move(*plan));
  }
  if (!r.ok() || !r.at_end()) return nullptr;
  return std::make_shared<const Block>(std::move(f));
}

}  // namespace nwade::chain
