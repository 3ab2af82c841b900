// Bounded blockchain cache: each vehicle's store, and the IM's window of the
// blocks it published.
//
// "Each vehicle only needs to store the blockchain at its current
// intersection... The maximum length of the chain that a vehicle needs to
// cache and verify equals tau/delta" — crossing time over processing-window
// length. The store enforces structural chain validity (signature, Merkle
// root, prev-hash linkage, one block per seq) on append and evicts blocks
// beyond the depth bound. It holds shared BlockPtrs, never copies, and
// indexes the newest cached plan of every vehicle. Semantic plan-conflict
// checking lives in the NWADE protocol layer.
#pragma once

#include <cassert>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "chain/block.h"
#include "util/result.h"

namespace nwade::chain {

/// Why an append was rejected; drives the vehicle FSM's reaction
/// (any rejection == "the intersection manager is compromised").
enum class ChainError {
  kBadSignature,
  kBadMerkleRoot,
  kBrokenLinkage,     ///< prev_hash does not match our latest block
  kNonMonotonicSeq,   ///< sequence number gap or replay
  kStaleTimestamp,    ///< timestamp not increasing
  kEquivocation,      ///< a different block under a seq the store still holds
};

const char* chain_error_name(ChainError e);

/// Restore-time table: one Block per distinct serialized block, so every
/// holder restored through the same table shares its blocks the way a
/// running world does.
class BlockTable {
 public:
  /// The Block `wire` decodes to; nullptr on malformed input.
  BlockPtr get(const Bytes& wire);

 private:
  /// Size, then bytes: std::vector's own operator< trips GCC 12's
  /// -Wstringop-overread false positive under -Wall.
  struct WireLess {
    bool operator()(const Bytes& a, const Bytes& b) const;
  };
  std::map<Bytes, BlockPtr, WireLess> by_wire_;
};

class BlockStore {
 public:
  /// `max_depth` = tau/delta bound; older blocks are evicted after append.
  explicit BlockStore(std::size_t max_depth = 64) : max_depth_(max_depth) {}

  /// Validates and appends a block. On any failure the store is unchanged
  /// and the error tells the caller what was wrong with the block.
  Result<void, ChainError> append(const BlockPtr& block, const crypto::Verifier& verifier);

  /// Appends without validation: the IM's window of its own blocks, and
  /// checkpoint restore (the blocks were validated before the checkpoint,
  /// and re-verifying would perturb the signature-verify cache's counters).
  void append_unchecked(BlockPtr block);

  bool empty() const { return blocks_.empty(); }
  std::size_t size() const { return blocks_.size(); }
  std::size_t max_depth() const { return max_depth_; }

  const Block* latest() const { return blocks_.empty() ? nullptr : blocks_.back().get(); }

  /// The cached block holding `seq`; null when none does.
  BlockPtr by_seq(BlockSeq seq) const;

  /// Sequence number the next append must carry to keep the chain contiguous;
  /// 0 when the store is empty (any starting seq is accepted).
  BlockSeq next_expected() const {
    return blocks_.empty() ? 0 : blocks_.back()->seq + 1;
  }

  /// The gap an incoming block with sequence `incoming` would reveal: every
  /// missing seq in (latest, incoming), oldest first, capped at `limit`.
  /// Empty when the store is empty, the block is contiguous, or it replays an
  /// already-cached seq. Drives the protocol's gap-recovery BlockRequests.
  std::vector<BlockSeq> missing_before(BlockSeq incoming, std::size_t limit) const;

  /// All cached blocks, oldest first.
  const std::deque<BlockPtr>& blocks() const { return blocks_; }

  /// A vehicle's newest cached plan (evacuation/recovery plans supersede
  /// older ones); null when no cached block carries one.
  const aim::TravelPlan* find_plan(VehicleId id) const;

  /// The newest cached block carrying a plan for `id`; null when none does.
  BlockPtr block_with_plan(VehicleId id) const;

  /// find_plan() of every vehicle with a cached plan, in VehicleId order.
  std::vector<const aim::TravelPlan*> latest_plans() const;

  /// Field list: the depth bound, then the cached blocks (blocks_io).
  template <class Ar, class Self> static void io(Ar& ar, Self& store) {
    ar.u64(store.max_depth_);
    blocks_io(ar, store);
  }

  /// The cached blocks, oldest first (the IM's window saves only these). A
  /// read appends them unchecked, through the archive's BlockTable.
  template <class Ar, class Self> static void blocks_io(Ar& ar, Self& store);

 private:
  /// A vehicle's newest cached plan: the newest cached block carrying a plan
  /// for it, and the first such plan in that block.
  struct PlanRef {
    BlockPtr block;
    const aim::TravelPlan* plan{nullptr};
  };

  const PlanRef* plan_ref(VehicleId id) const;

  std::size_t max_depth_;
  std::deque<BlockPtr> blocks_;
  /// Kept in step with blocks_ by append_unchecked: every append points its
  /// vehicles here, every eviction drops the entries that point at it.
  std::unordered_map<VehicleId, PlanRef> plans_;
};

/// A shared block in a field list: its wire form, which a read decodes
/// through the archive's BlockTable so equal blocks stay one object. A null
/// block is saved as empty bytes and never read back.
template <class Ar, class P>
void io_block(Ar& ar, P& block) {
  if constexpr (Ar::kReading) {
    assert(ar.blocks() != nullptr && "reading blocks needs a BlockTable");
    Bytes wire;
    ar.bytes(wire);
    block = ar.ok() ? ar.blocks()->get(wire) : nullptr;
    if (block == nullptr) ar.fail();
  } else if (block != nullptr) {
    ar.sized(*block);
  } else {
    const Bytes none;
    ar.bytes(none);
  }
}

template <class Ar, class Self>
void BlockStore::blocks_io(Ar& ar, Self& store) {
  if constexpr (Ar::kReading) {
    std::vector<BlockPtr> blocks;
    ar.seq(blocks, 4, [](auto& a, BlockPtr& b) { io_block(a, b); });
    store.blocks_.clear();
    store.plans_.clear();
    if (!ar.ok()) return;
    for (BlockPtr& b : blocks) store.append_unchecked(std::move(b));
  } else {
    ar.seq(store.blocks_, 4, [](auto& a, const BlockPtr& b) { io_block(a, b); });
  }
}

}  // namespace nwade::chain
