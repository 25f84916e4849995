// Merkle tree unit + property tests: inclusion proofs verify for every
// leaf at every batch size; tampered items, proofs and roots fail.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "crypto/merkle.h"

namespace repro::crypto {
namespace {

std::vector<Bytes> make_items(std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> items;
  for (std::size_t i = 0; i < k; ++i) {
    Bytes b(8 + rng.uniform(32));
    for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
    items.push_back(std::move(b));
  }
  return items;
}

TEST(Merkle, EmptyBatchHasWellKnownRoot) {
  MerkleTree tree({});
  EXPECT_EQ(tree.root(), MerkleTree::empty_root());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(Merkle, SingleLeafRootIsLeafHash) {
  const Bytes item = {1, 2, 3};
  MerkleTree tree({item});
  EXPECT_EQ(tree.root(), MerkleTree::leaf_hash(item));
  const MerkleProof proof = tree.prove(0);
  EXPECT_TRUE(proof.steps.empty());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), item, proof));
}

TEST(Merkle, RootDependsOnEveryItem) {
  auto items = make_items(8, 1);
  const Digest root = MerkleTree(items).root();
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto tweaked = items;
    tweaked[i][0] ^= 1;
    EXPECT_NE(MerkleTree(tweaked).root(), root) << "item " << i;
  }
}

TEST(Merkle, RootDependsOnOrder) {
  auto items = make_items(4, 2);
  auto swapped = items;
  std::swap(swapped[1], swapped[2]);
  EXPECT_NE(MerkleTree(items).root(), MerkleTree(swapped).root());
}

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, EveryLeafProvesAndVerifies) {
  const std::size_t k = GetParam();
  const auto items = make_items(k, 100 + k);
  MerkleTree tree(items);
  for (std::uint32_t i = 0; i < k; ++i) {
    const MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), items[i], proof)) << "leaf " << i;
    // Proof depth is logarithmic.
    EXPECT_LE(proof.steps.size(), 1 + static_cast<std::size_t>(std::ceil(std::log2(k))));
  }
}

TEST_P(MerkleSizes, WrongItemFailsVerification) {
  const std::size_t k = GetParam();
  const auto items = make_items(k, 200 + k);
  MerkleTree tree(items);
  for (std::uint32_t i = 0; i < k; ++i) {
    Bytes tampered = items[i];
    tampered.back() ^= 0xff;
    EXPECT_FALSE(MerkleTree::verify(tree.root(), tampered, tree.prove(i)));
  }
}

TEST_P(MerkleSizes, TamperedProofFailsVerification) {
  const std::size_t k = GetParam();
  if (k < 2) return;  // single-leaf proofs have no steps to tamper
  const auto items = make_items(k, 300 + k);
  MerkleTree tree(items);
  for (std::uint32_t i = 0; i < k; ++i) {
    MerkleProof proof = tree.prove(i);
    ASSERT_FALSE(proof.steps.empty());
    proof.steps[0].sibling[0] ^= 1;
    EXPECT_FALSE(MerkleTree::verify(tree.root(), items[i], proof));
  }
}

TEST_P(MerkleSizes, ProofEncodingRoundTrips) {
  const std::size_t k = GetParam();
  const auto items = make_items(k, 400 + k);
  MerkleTree tree(items);
  for (std::uint32_t i = 0; i < k; ++i) {
    const MerkleProof proof = tree.prove(i);
    Encoder enc;
    proof.encode(enc);
    Decoder dec(enc.result());
    auto decoded = MerkleProof::decode(dec);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, proof);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), items[i], *decoded));
  }
}

// Odd sizes exercise the promoted-node paths; powers of two the full
// binary case.
INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 31, 64,
                                           100));

TEST(Merkle, CrossTreeProofRejected) {
  const auto a = make_items(8, 500);
  const auto b = make_items(8, 501);
  MerkleTree ta(a), tb(b);
  EXPECT_FALSE(MerkleTree::verify(tb.root(), a[3], ta.prove(3)));
}

TEST(Merkle, LeafAndNodeDomainsSeparated) {
  // A 64-byte item equal to the concatenation of two child hashes must
  // not collide with the inner node above them.
  const auto items = make_items(2, 600);
  MerkleTree tree(items);
  Bytes concat;
  const Digest l0 = MerkleTree::leaf_hash(items[0]);
  const Digest l1 = MerkleTree::leaf_hash(items[1]);
  concat.insert(concat.end(), l0.begin(), l0.end());
  concat.insert(concat.end(), l1.begin(), l1.end());
  EXPECT_NE(MerkleTree::leaf_hash(concat), tree.root());
}

TEST(Merkle, KnownAnswerRootAndProofs) {
  // Pinned values: any change to the leaf or node hashing, the odd-node
  // promotion or the proof encoding moves them.
  std::vector<Bytes> items;
  for (int i = 0; i < 5; ++i) {
    const std::string s = "txn-" + std::to_string(i);
    items.emplace_back(s.begin(), s.end());
  }
  const MerkleTree tree(items);
  EXPECT_EQ(to_hex(tree.root()),
            "f1d71f3e1460441ba65d696853833c9b9ce8ab00baf1a6db08cf654b7cdd0a86");
  const auto encoded = [&](std::uint32_t index) {
    Encoder enc;
    tree.prove(index).encode(enc);
    return to_hex(enc.result());
  };
  EXPECT_EQ(encoded(1),
            "010000000300000001fa6a3903485183415d8a8e4bf079629603544dc987c58139e2244b848c44a7"
            "60007834dc6ffba081b1193f259e0dd61c85219f2dd4f9523b7115f057d013ad98e9008f0ba11557"
            "785c24c82f16ff70800b50464c034861eccf64fd69056c31b62c9c");
  EXPECT_EQ(encoded(4),
            "040000000100000001f86ffe2fffcabe05a43d2fc4d9390f6554fb8f91ac5faa383028a9cc75e62eb3");
  // A tree over views of the same bytes is the same tree.
  const std::vector<BytesView> views(items.begin(), items.end());
  EXPECT_EQ(MerkleTree(views).root(), tree.root());
  EXPECT_TRUE(MerkleTree::verify_leaf(tree.root(), MerkleTree::leaf_hash(items[1]),
                                      tree.prove(1)));
}

}  // namespace
}  // namespace repro::crypto
