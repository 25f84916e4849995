#include "crypto/merkle.h"

#include <array>
#include <string_view>

#include "common/assert.h"

namespace repro::crypto {

void MerkleProof::encode(Encoder& enc) const {
  enc.u32(index);
  enc.u32(static_cast<std::uint32_t>(steps.size()));
  for (const Step& s : steps) {
    enc.bool_(s.sibling_on_left);
    enc.raw(BytesView(s.sibling.data(), s.sibling.size()));
  }
}

std::optional<MerkleProof> MerkleProof::decode(Decoder& dec) {
  MerkleProof p;
  auto index = dec.u32();
  auto count = dec.u32();
  if (!index || !count || *count > 64) return std::nullopt;
  p.index = *index;
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto on_left = dec.bool_();
    auto raw = dec.raw(32);
    if (!on_left || !raw) return std::nullopt;
    Step s;
    s.sibling_on_left = *on_left;
    std::copy(raw->begin(), raw->end(), s.sibling.begin());
    p.steps.push_back(s);
  }
  return p;
}

Digest MerkleTree::leaf_hash(BytesView item) {
  return sha256_tagged("repro/merkle-leaf", item);
}

Digest MerkleTree::node_hash(const Digest& left, const Digest& right) {
  // The bytes sha256_tagged("repro/merkle-node", left || right) hashes,
  // laid out on the stack: tag_len || tag || left || right.
  static constexpr std::string_view kTag = "repro/merkle-node";
  std::array<std::uint8_t, 1 + kTag.size() + 2 * sizeof(Digest)> buf;
  buf[0] = static_cast<std::uint8_t>(kTag.size());
  auto out = std::copy(kTag.begin(), kTag.end(), buf.begin() + 1);
  out = std::copy(left.begin(), left.end(), out);
  std::copy(right.begin(), right.end(), out);
  return sha256(buf);
}

Digest MerkleTree::empty_root() {
  return sha256_tagged("repro/merkle-empty", BytesView{});
}

void MerkleTree::build(std::vector<Digest> leaves) {
  if (leaves.empty()) {
    root_ = empty_root();
    return;
  }
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& below = levels_.back();
    std::vector<Digest> above;
    above.reserve((below.size() + 1) / 2);
    for (std::size_t i = 0; i < below.size(); i += 2) {
      if (i + 1 < below.size()) {
        above.push_back(node_hash(below[i], below[i + 1]));
      } else {
        above.push_back(below[i]);  // odd node promoted, not duplicated
      }
    }
    levels_.push_back(std::move(above));
  }
  root_ = levels_.back().front();
}

MerkleProof MerkleTree::prove(std::uint32_t index) const {
  REPRO_ASSERT(index < leaf_count_);
  MerkleProof proof;
  proof.index = index;
  std::size_t pos = index;
  for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const auto& level = levels_[lvl];
    const std::size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    if (sibling < level.size()) {
      proof.steps.push_back(MerkleProof::Step{/*sibling_on_left=*/pos % 2 == 1,
                                              level[sibling]});
    }
    // A promoted odd node carries over unchanged (no step recorded); its
    // index in the level above is still pos / 2 (it is the last element).
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::verify(const Digest& root, BytesView item, const MerkleProof& proof) {
  return verify_leaf(root, leaf_hash(item), proof);
}

bool MerkleTree::verify_leaf(const Digest& root, const Digest& leaf, const MerkleProof& proof) {
  Digest acc = leaf;
  for (const MerkleProof::Step& s : proof.steps) {
    acc = s.sibling_on_left ? node_hash(s.sibling, acc) : node_hash(acc, s.sibling);
  }
  return acc == root;
}

}  // namespace repro::crypto
