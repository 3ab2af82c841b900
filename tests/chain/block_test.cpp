// Block packaging and verification: signatures, Merkle roots, serialization,
// and every tamper path a compromised IM could attempt on a single block.
// Tampered blocks are forged by editing a fields() copy and rebuilding.
#include "chain/block.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace nwade::chain {
namespace {

aim::TravelPlan plan_for(std::uint64_t vid, Tick start) {
  aim::TravelPlan p;
  p.vehicle = VehicleId{vid};
  p.route_id = static_cast<int>(vid % 12);
  p.segments = {aim::PlanSegment{start, 0, 15.0}};
  p.issued_at = start;
  p.core_entry = start + 10000;
  p.core_exit = start + 14000;
  return p;
}

class BlockTest : public ::testing::Test {
 protected:
  BlockTest() : signer_(Bytes{'k', 'e', 'y'}) {}

  BlockPtr make_block(BlockSeq seq, const crypto::Digest& prev, int n_plans) {
    std::vector<aim::TravelPlan> plans;
    for (int i = 0; i < n_plans; ++i) {
      plans.push_back(plan_for(seq * 100 + static_cast<std::uint64_t>(i) + 1, 1000));
    }
    return Block::package(seq, prev, static_cast<Tick>(seq) * 1000, std::move(plans),
                          signer_);
  }

  crypto::HmacSigner signer_;
};

// A deep copy cannot creep back in: every holder shares one BlockPtr.
static_assert(!std::is_copy_constructible_v<Block>);
static_assert(!std::is_copy_assignable_v<Block>);

TEST_F(BlockTest, PackageProducesValidBlock) {
  const BlockPtr b = make_block(0, {}, 5);
  EXPECT_TRUE(b->verify_signature(*signer_.verifier()));
  EXPECT_TRUE(b->verify_merkle());
  EXPECT_EQ(b->plans().size(), 5u);
}

TEST_F(BlockTest, EmptyBlockIsValid) {
  const BlockPtr b = make_block(0, {}, 0);
  EXPECT_TRUE(b->verify_signature(*signer_.verifier()));
  EXPECT_TRUE(b->verify_merkle());
}

TEST_F(BlockTest, FieldsRebuildAnIdenticalBlock) {
  const BlockPtr b = make_block(1, crypto::sha256("prev"), 3);
  const Block copy(b->fields());
  EXPECT_EQ(copy.hash(), b->hash());
  EXPECT_EQ(copy.serialize(), b->serialize());
  EXPECT_TRUE(copy.verify_signature(*signer_.verifier()));
  EXPECT_TRUE(copy.verify_merkle());
}

TEST_F(BlockTest, TamperedPlanBreaksMerkle) {
  BlockFields f = make_block(0, {}, 4)->fields();
  f.plans[2].segments[0].v_mps = 99.0;  // forged instruction
  const Block b(std::move(f));
  EXPECT_FALSE(b.verify_merkle());
  EXPECT_TRUE(b.verify_signature(*signer_.verifier()));  // header untouched
}

TEST_F(BlockTest, SwappedPlansBreakMerkle) {
  BlockFields f = make_block(0, {}, 4)->fields();
  std::swap(f.plans[0], f.plans[1]);
  const Block b(std::move(f));
  EXPECT_FALSE(b.verify_merkle());
}

TEST_F(BlockTest, TamperedRootBreaksSignature) {
  BlockFields f = make_block(0, {}, 4)->fields();
  f.merkle_root[0] ^= 1;
  const Block b(std::move(f));
  EXPECT_FALSE(b.verify_signature(*signer_.verifier()));
}

TEST_F(BlockTest, TamperedTimestampBreaksSignature) {
  BlockFields f = make_block(0, {}, 2)->fields();
  f.timestamp += 1;
  const Block b(std::move(f));
  EXPECT_FALSE(b.verify_signature(*signer_.verifier()));
}

TEST_F(BlockTest, TamperedPrevHashBreaksSignature) {
  BlockFields f = make_block(1, crypto::sha256("genesis"), 2)->fields();
  f.prev_hash[5] ^= 0x10;
  const Block b(std::move(f));
  EXPECT_FALSE(b.verify_signature(*signer_.verifier()));
}

TEST_F(BlockTest, ForeignSignerRejected) {
  const BlockPtr b = make_block(0, {}, 3);
  crypto::HmacSigner other(Bytes{'e', 'v', 'i', 'l'});
  EXPECT_FALSE(b->verify_signature(*other.verifier()));
}

TEST_F(BlockTest, HashChainsOnContent) {
  const BlockPtr a = make_block(0, {}, 3);
  BlockFields f = a->fields();
  f.timestamp++;
  const Block b(std::move(f));
  EXPECT_NE(a->hash(), b.hash());
}

TEST_F(BlockTest, PlanLookup) {
  const BlockPtr b = make_block(2, {}, 4);
  ASSERT_NE(b->plan_for(VehicleId{201}), nullptr);
  EXPECT_EQ(b->plan_for(VehicleId{201})->vehicle, VehicleId{201});
  EXPECT_EQ(b->plan_for(VehicleId{9999}), nullptr);
}

TEST_F(BlockTest, MerkleProofForPlan) {
  const BlockPtr b = make_block(0, {}, 7);
  for (std::size_t i = 0; i < b->plans().size(); ++i) {
    const auto proof = b->prove_plan(i);
    EXPECT_TRUE(
        crypto::MerkleTree::verify(b->plans()[i].serialize(), proof, b->merkle_root));
  }
  // Proof does not validate a different plan.
  const auto proof0 = b->prove_plan(0);
  EXPECT_FALSE(
      crypto::MerkleTree::verify(b->plans()[1].serialize(), proof0, b->merkle_root));
}

TEST_F(BlockTest, SerializationRoundTrip) {
  const BlockPtr b = make_block(3, crypto::sha256("prev"), 6);
  const BlockPtr back = Block::deserialize(b->serialize());
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->seq, b->seq);
  EXPECT_EQ(back->signature, b->signature);
  EXPECT_EQ(back->prev_hash, b->prev_hash);
  EXPECT_EQ(back->merkle_root, b->merkle_root);
  EXPECT_EQ(back->timestamp, b->timestamp);
  ASSERT_EQ(back->plans().size(), b->plans().size());
  EXPECT_TRUE(back->verify_signature(*signer_.verifier()));
  EXPECT_TRUE(back->verify_merkle());
  EXPECT_EQ(back->hash(), b->hash());
}

TEST_F(BlockTest, DeserializeRejectsTruncation) {
  const BlockPtr b = make_block(0, {}, 3);
  Bytes bytes = b->serialize();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    Bytes truncated(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_EQ(Block::deserialize(truncated), nullptr) << "cut " << cut;
  }
}

TEST_F(BlockTest, WireSizeGrowsWithPlans) {
  EXPECT_LT(make_block(0, {}, 1)->wire_size(), make_block(0, {}, 20)->wire_size());
}

TEST_F(BlockTest, WireSizeIsExactlyTheSerializedSize) {
  for (const int n_plans : {0, 1, 7, 20}) {
    const BlockPtr b = make_block(static_cast<BlockSeq>(n_plans), {}, n_plans);
    EXPECT_EQ(b->wire_size(), b->serialize().size()) << n_plans << " plans";
  }
  const BlockPtr revoking =
      Block::package(0, {}, 0, {}, signer_, {VehicleId{3}, VehicleId{4}});
  EXPECT_EQ(revoking->wire_size(), revoking->serialize().size());
}

}  // namespace
}  // namespace nwade::chain
