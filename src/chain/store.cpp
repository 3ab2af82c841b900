#include "chain/store.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace nwade::chain {

const char* chain_error_name(ChainError e) {
  switch (e) {
    case ChainError::kBadSignature: return "bad_signature";
    case ChainError::kBadMerkleRoot: return "bad_merkle_root";
    case ChainError::kBrokenLinkage: return "broken_linkage";
    case ChainError::kNonMonotonicSeq: return "non_monotonic_seq";
    case ChainError::kStaleTimestamp: return "stale_timestamp";
    case ChainError::kEquivocation: return "equivocation";
  }
  return "?";
}

bool BlockTable::WireLess::operator()(const Bytes& a, const Bytes& b) const {
  if (a.size() != b.size()) return a.size() < b.size();
  return !a.empty() && std::memcmp(a.data(), b.data(), a.size()) < 0;
}

BlockPtr BlockTable::get(const Bytes& wire) {
  const auto it = by_wire_.find(wire);
  if (it != by_wire_.end()) return it->second;
  BlockPtr block = Block::deserialize(wire);
  if (block != nullptr) by_wire_.emplace(wire, block);
  return block;
}

Result<void, ChainError> BlockStore::append(const BlockPtr& block,
                                            const crypto::Verifier& verifier) {
  if (!block->verify_signature(verifier)) return ChainError::kBadSignature;
  if (!block->verify_merkle()) return ChainError::kBadMerkleRoot;
  if (!blocks_.empty()) {
    const Block& prev = *blocks_.back();
    if (block->seq != prev.seq + 1) {
      // An honest IM never signs two blocks under one seq: a different block
      // under a cached seq is equivocation, the same block a replay.
      const BlockPtr cached = by_seq(block->seq);
      if (cached != nullptr && cached->hash() != block->hash()) {
        return ChainError::kEquivocation;
      }
      return ChainError::kNonMonotonicSeq;
    }
    if (block->prev_hash != prev.hash()) return ChainError::kBrokenLinkage;
    if (block->timestamp < prev.timestamp) return ChainError::kStaleTimestamp;
  }
  append_unchecked(block);
  return Result<void, ChainError>::ok();
}

void BlockStore::append_unchecked(BlockPtr block) {
  for (const aim::TravelPlan& p : block->plans()) {
    PlanRef& ref = plans_[p.vehicle];
    if (ref.block != block) ref = PlanRef{block, &p};  // first plan per block
  }
  blocks_.push_back(std::move(block));
  while (blocks_.size() > max_depth_) {
    const BlockPtr& oldest = blocks_.front();
    for (const aim::TravelPlan& p : oldest->plans()) {
      const auto it = plans_.find(p.vehicle);
      if (it != plans_.end() && it->second.block == oldest) plans_.erase(it);
    }
    blocks_.pop_front();
  }
}

std::vector<BlockSeq> BlockStore::missing_before(BlockSeq incoming,
                                                 std::size_t limit) const {
  std::vector<BlockSeq> out;
  if (blocks_.empty()) return out;
  const BlockSeq expected = next_expected();
  if (incoming <= expected) return out;  // contiguous or replay
  for (BlockSeq seq = expected; seq < incoming && out.size() < limit; ++seq) {
    out.push_back(seq);
  }
  return out;
}

BlockPtr BlockStore::by_seq(BlockSeq seq) const {
  for (const BlockPtr& b : blocks_) {
    if (b->seq == seq) return b;
  }
  return nullptr;
}

const BlockStore::PlanRef* BlockStore::plan_ref(VehicleId id) const {
  const auto it = plans_.find(id);
  return it == plans_.end() ? nullptr : &it->second;
}

const aim::TravelPlan* BlockStore::find_plan(VehicleId id) const {
  const PlanRef* ref = plan_ref(id);
  return ref == nullptr ? nullptr : ref->plan;
}

BlockPtr BlockStore::block_with_plan(VehicleId id) const {
  const PlanRef* ref = plan_ref(id);
  return ref == nullptr ? nullptr : ref->block;
}

std::vector<const aim::TravelPlan*> BlockStore::latest_plans() const {
  std::vector<std::pair<VehicleId, const aim::TravelPlan*>> by_id;
  by_id.reserve(plans_.size());
  for (const auto& [id, ref] : plans_) by_id.emplace_back(id, ref.plan);
  std::sort(by_id.begin(), by_id.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<const aim::TravelPlan*> out;
  out.reserve(by_id.size());
  for (const auto& [id, plan] : by_id) out.push_back(plan);
  return out;
}

}  // namespace nwade::chain
