// Merkle trees over transaction batches.
//
// The paper's validated-SMR remark (external validity, clients) implies
// clients need evidence that their transaction is inside a committed
// block. A Merkle commitment gives it in O(log k): the block carries the
// root; a client holding (txn, proof) verifies inclusion against the root
// of any committed block id it has f+1 acks for, without downloading the
// batch. Standard construction: leaves are tagged hashes of the items,
// odd nodes are promoted (no duplication, so no CVE-2012-2459-style
// ambiguity), and inner nodes are domain-separated from leaves.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/codec.h"
#include "crypto/sha256.h"

namespace repro::crypto {

struct MerkleProof {
  /// One hashing step, bottom-up. With promoted odd nodes some levels
  /// contribute no sibling, so the combine direction is recorded
  /// explicitly instead of being derived from the leaf index.
  struct Step {
    bool sibling_on_left = false;
    Digest sibling{};

    bool operator==(const Step&) const = default;
  };

  std::uint32_t index = 0;   ///< leaf position in the batch (advisory)
  std::vector<Step> steps;   ///< bottom-up combine steps

  bool operator==(const MerkleProof&) const = default;

  void encode(Encoder& enc) const;
  static std::optional<MerkleProof> decode(Decoder& dec);
};

class MerkleTree {
 public:
  /// Builds the tree over the given leaf payloads (owned Bytes, or
  /// BytesViews into a batch). An empty batch has the well-known empty
  /// root.
  template <typename Item = Bytes>
    requires std::convertible_to<const Item&, BytesView>
  explicit MerkleTree(const std::vector<Item>& items) : leaf_count_(items.size()) {
    std::vector<Digest> leaves;
    leaves.reserve(items.size());
    for (const Item& item : items) leaves.push_back(leaf_hash(item));
    build(std::move(leaves));
  }

  const Digest& root() const { return root_; }
  std::size_t size() const { return leaf_count_; }

  /// Inclusion proof for the item at `index` (must be < size()).
  MerkleProof prove(std::uint32_t index) const;

  /// Verifies that `item` is at `proof.index` under `root`.
  static bool verify(const Digest& root, BytesView item, const MerkleProof& proof);
  /// verify() for a caller that already holds leaf_hash(item).
  static bool verify_leaf(const Digest& root, const Digest& leaf, const MerkleProof& proof);

  /// The root of an empty batch.
  static Digest empty_root();

  static Digest leaf_hash(BytesView item);
  static Digest node_hash(const Digest& left, const Digest& right);

 private:
  void build(std::vector<Digest> leaves);

  std::size_t leaf_count_ = 0;
  /// levels_[0] = leaf hashes, levels_.back() = {root}.
  std::vector<std::vector<Digest>> levels_;
  Digest root_{};
};

}  // namespace repro::crypto
