// The signed revocation list added to blocks: serialization, signature
// coverage, and propagation semantics.
#include <gtest/gtest.h>

#include "chain/store.h"

namespace nwade::chain {
namespace {

class RevocationTest : public ::testing::Test {
 protected:
  RevocationTest() : signer_(Bytes{'r', 'v'}) {}
  crypto::HmacSigner signer_;
};

TEST_F(RevocationTest, RoundTripsThroughSerialization) {
  const BlockPtr b = Block::package(0, {}, 100, {}, signer_,
                                    {VehicleId{5}, VehicleId{9}});
  const BlockPtr back = Block::deserialize(b->serialize());
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->revoked.size(), 2u);
  EXPECT_EQ(back->revoked[0], VehicleId{5});
  EXPECT_EQ(back->revoked[1], VehicleId{9});
  EXPECT_TRUE(back->verify_signature(*signer_.verifier()));
}

TEST_F(RevocationTest, SignatureCoversRevocations) {
  // Tampering with the revocation list must break the signature: otherwise a
  // compromised relay could un-revoke a threat.
  BlockFields f = Block::package(0, {}, 100, {}, signer_, {VehicleId{5}})->fields();
  f.revoked.clear();
  EXPECT_FALSE(Block(std::move(f)).verify_signature(*signer_.verifier()));
  BlockFields f2 = Block::package(0, {}, 100, {}, signer_, {VehicleId{5}})->fields();
  f2.revoked.push_back(VehicleId{6});
  EXPECT_FALSE(Block(std::move(f2)).verify_signature(*signer_.verifier()));
}

TEST_F(RevocationTest, RevocationChangesBlockHash) {
  const BlockPtr a = Block::package(0, {}, 100, {}, signer_, {});
  const BlockPtr b = Block::package(0, {}, 100, {}, signer_, {VehicleId{1}});
  EXPECT_NE(a->hash(), b->hash());
}

TEST_F(RevocationTest, EmptyRevocationListIsDefault) {
  const BlockPtr b = Block::package(0, {}, 100, {}, signer_);
  EXPECT_TRUE(b->revoked.empty());
  EXPECT_TRUE(b->verify_signature(*signer_.verifier()));
}

TEST_F(RevocationTest, StoreAcceptsChainWithRevocations) {
  BlockStore store;
  const BlockPtr b0 = Block::package(0, {}, 100, {}, signer_, {});
  ASSERT_TRUE(store.append(b0, *signer_.verifier()));
  const BlockPtr b1 =
      Block::package(1, b0->hash(), 200, {}, signer_, {VehicleId{42}});
  EXPECT_TRUE(store.append(b1, *signer_.verifier()));
  EXPECT_EQ(store.latest()->revoked.size(), 1u);
}

}  // namespace
}  // namespace nwade::chain
