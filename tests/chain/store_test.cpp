// BlockStore: chain linkage validation, the tau/delta depth bound, and the
// newest-plan-per-vehicle index checked against a newest-first scan.
#include "chain/store.h"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.h"

namespace nwade::chain {
namespace {

aim::TravelPlan plan_of(std::uint64_t vehicle, Tick t0, double speed) {
  aim::TravelPlan p;
  p.vehicle = VehicleId{vehicle};
  p.segments = {aim::PlanSegment{t0, 0, speed}};
  return p;
}

/// Rebuilds `block` with `edit` applied to a copy of its fields.
template <typename Edit>
BlockPtr forge(const BlockPtr& block, Edit edit) {
  BlockFields f = block->fields();
  edit(f);
  return std::make_shared<const Block>(std::move(f));
}

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : signer_(Bytes{'i', 'm'}) {}

  BlockPtr next_block(int n_plans = 2) {
    std::vector<aim::TravelPlan> plans;
    for (int i = 0; i < n_plans; ++i) {
      plans.push_back(plan_of(seq_ * 10 + static_cast<std::uint64_t>(i) + 1,
                              static_cast<Tick>(seq_) * 1000, 10));
    }
    return next_block_with(std::move(plans));
  }

  BlockPtr next_block_with(std::vector<aim::TravelPlan> plans) {
    BlockPtr b = Block::package(seq_, prev_, static_cast<Tick>(seq_) * 1000,
                                std::move(plans), signer_);
    prev_ = b->hash();
    ++seq_;
    return b;
  }

  crypto::HmacSigner signer_;
  crypto::Digest prev_{};
  BlockSeq seq_{0};
};

TEST_F(StoreTest, AppendsValidChain) {
  BlockStore store;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(store.append(next_block(), *signer_.verifier()));
  }
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.latest()->seq, 4u);
  EXPECT_NE(store.by_seq(2), nullptr);
  EXPECT_EQ(store.by_seq(99), nullptr);
}

TEST_F(StoreTest, RejectsBadSignature) {
  BlockStore store;
  const BlockPtr b = forge(next_block(), [](BlockFields& f) {
    f.timestamp += 5;  // invalidates signature
  });
  const auto result = store.append(b, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kBadSignature);
  EXPECT_TRUE(store.empty());
}

TEST_F(StoreTest, RejectsTamperedPlans) {
  BlockStore store;
  const BlockPtr b = forge(next_block(), [](BlockFields& f) {
    f.plans[0].segments[0].v_mps = 60;
  });
  const auto result = store.append(b, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kBadMerkleRoot);
}

TEST_F(StoreTest, RejectsBrokenLinkage) {
  BlockStore store;
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  // Forge the next block with the right seq but wrong prev hash.
  prev_ = crypto::sha256("not the real prev");
  const BlockPtr forged = next_block();
  const auto result = store.append(forged, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kBrokenLinkage);
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(StoreTest, RejectsSeqGapAndReplay) {
  BlockStore store;
  const BlockPtr b0 = next_block();
  const BlockPtr b1 = next_block();
  const BlockPtr b2 = next_block();
  ASSERT_TRUE(store.append(b0, *signer_.verifier()));
  // Gap: b2 after b0.
  auto result = store.append(b2, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kNonMonotonicSeq);
  // Replay of b0.
  result = store.append(b0, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kNonMonotonicSeq);
  // Correct continuation still works.
  EXPECT_TRUE(store.append(b1, *signer_.verifier()));
}

TEST_F(StoreTest, RejectsEquivocationUnderCachedSeq) {
  BlockStore store(2);
  const BlockPtr b0 = next_block();
  ASSERT_TRUE(store.append(b0, *signer_.verifier()));
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  // A validly signed second block under the cached seq 0.
  const BlockPtr twin = Block::package(0, {}, 0, {plan_of(99, 0, 7)}, signer_);
  ASSERT_NE(twin->hash(), b0->hash());
  auto result = store.append(twin, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kEquivocation);
  // A rebuilt copy of the cached block is a replay, not equivocation.
  result = store.append(std::make_shared<const Block>(b0->fields()), *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kNonMonotonicSeq);
  // Once seq 0 is evicted the store cannot tell the twin apart any more.
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  ASSERT_EQ(store.by_seq(0), nullptr);
  result = store.append(twin, *signer_.verifier());
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error(), ChainError::kNonMonotonicSeq);
  EXPECT_EQ(store.size(), 2u);
}

TEST_F(StoreTest, EvictsBeyondMaxDepth) {
  BlockStore store(3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.blocks().front()->seq, 7u);
  EXPECT_EQ(store.latest()->seq, 9u);
  // Evicted blocks are gone; linkage continues to be enforced at the tail.
  EXPECT_EQ(store.by_seq(0), nullptr);
}

TEST_F(StoreTest, FindPlanReturnsNewest) {
  BlockStore store;
  // Vehicle 42 gets a plan in block 0 and a superseding plan in block 2.
  ASSERT_TRUE(store.append(next_block_with({plan_of(42, 0, 10.0)}), *signer_.verifier()));
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  ASSERT_TRUE(store.append(next_block_with({plan_of(42, 0, 5.0)}), *signer_.verifier()));
  const aim::TravelPlan* p = store.find_plan(VehicleId{42});
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->segments[0].v_mps, 5.0);
  EXPECT_EQ(store.block_with_plan(VehicleId{42}), store.blocks().back());
  EXPECT_EQ(store.find_plan(VehicleId{777}), nullptr);
  EXPECT_EQ(store.block_with_plan(VehicleId{777}), nullptr);
}

TEST_F(StoreTest, FailedAppendLeavesStoreUntouched) {
  BlockStore store;
  ASSERT_TRUE(store.append(next_block(), *signer_.verifier()));
  const std::size_t size = store.size();
  const auto* latest = store.latest();
  const BlockPtr bad = forge(next_block(), [](BlockFields& f) { f.merkle_root[0] ^= 1; });
  EXPECT_FALSE(store.append(bad, *signer_.verifier()));
  EXPECT_EQ(store.size(), size);
  EXPECT_EQ(store.latest(), latest);
}

// --- the newest-plan index against a newest-first scan ------------------------

/// Oracle for find_plan/block_with_plan: newest cached block first, plan_for's
/// first match.
const aim::TravelPlan* scan_plan(const BlockStore& store, VehicleId id, BlockPtr* block) {
  for (auto it = store.blocks().rbegin(); it != store.blocks().rend(); ++it) {
    if (const aim::TravelPlan* p = (*it)->plan_for(id)) {
      *block = *it;
      return p;
    }
  }
  *block = nullptr;
  return nullptr;
}

/// Oracle for latest_plans(): newest plan per vehicle, in VehicleId order.
std::vector<const aim::TravelPlan*> scan_latest_plans(const BlockStore& store) {
  std::map<VehicleId, const aim::TravelPlan*> latest;
  for (auto it = store.blocks().rbegin(); it != store.blocks().rend(); ++it) {
    for (const aim::TravelPlan& p : (*it)->plans()) latest.try_emplace(p.vehicle, &p);
  }
  std::vector<const aim::TravelPlan*> out;
  for (const auto& [id, p] : latest) out.push_back(p);
  return out;
}

void expect_index_matches_scan(const BlockStore& store, std::uint64_t max_vehicle,
                               const std::string& where) {
  for (std::uint64_t v = 1; v <= max_vehicle + 1; ++v) {
    BlockPtr scanned;
    const aim::TravelPlan* want = scan_plan(store, VehicleId{v}, &scanned);
    EXPECT_EQ(store.find_plan(VehicleId{v}), want) << where << ", vehicle " << v;
    EXPECT_EQ(store.block_with_plan(VehicleId{v}), scanned) << where << ", vehicle " << v;
  }
  EXPECT_EQ(store.latest_plans(), scan_latest_plans(store)) << where;
}

TEST_F(StoreTest, PlanIndexMatchesNewestFirstScan) {
  constexpr std::uint64_t kVehicles = 8;
  Rng rng(20261017);
  for (int trial = 0; trial < 40; ++trial) {
    const auto depth = static_cast<std::size_t>(rng.uniform_int(1, 5));
    BlockStore store(depth);
    for (int op = 0; op < 60; ++op) {
      const std::string where =
          "trial " + std::to_string(trial) + " op " + std::to_string(op);
      const std::int64_t roll = rng.uniform_int(0, 19);
      if (roll == 0) {
        // Resync: the vehicle drops its cache and restarts from the next block.
        store = BlockStore(depth);
      } else if (roll == 1) {
        const Bytes blob = to_bytes(store);
        BlockTable table;
        BlockStore restored;
        ByteReader r(blob);
        ASSERT_TRUE(load(r, restored, &table)) << where;
        store = std::move(restored);
      } else {
        std::vector<aim::TravelPlan> plans;
        const std::int64_t n = rng.uniform_int(0, 4);
        for (std::int64_t i = 0; i < n; ++i) {
          const auto v = static_cast<std::uint64_t>(
              rng.uniform_int(1, static_cast<std::int64_t>(kVehicles)));
          plans.push_back(plan_of(v, static_cast<Tick>(seq_) * 1000,
                                  static_cast<double>(plans.size() + 1)));
          // Sometimes a second plan for the same vehicle in the same block.
          if (rng.chance(0.15)) {
            plans.push_back(plan_of(v, static_cast<Tick>(seq_) * 1000, 50.0));
          }
        }
        ASSERT_TRUE(store.append(next_block_with(std::move(plans)), *signer_.verifier()))
            << where;
      }
      expect_index_matches_scan(store, kVehicles, where);
    }
  }
}

}  // namespace
}  // namespace nwade::chain
