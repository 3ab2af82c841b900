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

/// The wire form's field list, over a Block (saving) or BlockFields
/// (decoding); a Block keeps its plans private, so they are passed apart.
template <class Ar, class F, class Plans>
void wire_io(Ar& ar, F& f, Plans& plans) {
  constexpr std::size_t kMaxEntries = 100'000;  // sanity bound
  ar.bytes(f.signature);
  ar.digest(f.prev_hash);
  ar.i64(f.timestamp);
  ar.digest(f.merkle_root);
  ar.u64(f.seq);
  ar.seq(f.revoked, 8, [](auto& a, auto& id) { a.id(id); }, kMaxEntries);
  // A plan is at least its 4-byte length and 84-byte fixed part.
  ar.seq(plans, 88, [](auto& a, auto& p) { a.sized(p); }, kMaxEntries);
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

void Block::io(WriteArchive& ar, const Block& b) { wire_io(ar, b, b.plans_); }

Bytes Block::serialize() const {
  // Reserving the exact total turns the per-plan appends from repeated
  // geometric regrowth (quadratic copying on large windows) into one
  // allocation.
  ByteWriter w;
  w.reserve(wire_size_);
  save(w, *this);
  return w.take();
}

BlockPtr Block::deserialize(const Bytes& data) {
  ByteReader r(data);
  ReadArchive ar(r);
  BlockFields f;
  wire_io(ar, f, f.plans);
  if (!ar.ok() || !r.at_end()) return nullptr;
  return std::make_shared<const Block>(std::move(f));
}

}  // namespace nwade::chain
