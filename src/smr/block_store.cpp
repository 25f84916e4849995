#include "smr/block_store.h"

#include "common/assert.h"

namespace repro::smr {

BlockStore::BlockStore() {
  // Genesis is always present and certified by fiat.
  blocks_.emplace(genesis_id(), Block::genesis());
  const Certificate g = genesis_certificate();
  certs_.emplace(g.block_id, g);
  cert_log_.push_back(g);
}

bool BlockStore::insert(Block block) {
  // A duplicate returns before the id is re-hashed.
  if (blocks_.contains(block.id)) return false;
  REPRO_ASSERT_MSG(block.id_consistent(), "inserting id-inconsistent block");
  blocks_.emplace(block.id, std::move(block));
  return true;
}

const Block* BlockStore::get(const BlockId& id) const {
  auto it = blocks_.find(id);
  return it == blocks_.end() ? nullptr : &it->second;
}

bool BlockStore::add_certificate(const Certificate& cert) {
  const bool inserted = certs_.emplace(cert.block_id, cert).second;
  if (inserted) cert_log_.push_back(cert);
  return inserted;
}

const Certificate* BlockStore::certificate_for(const BlockId& id) const {
  auto it = certs_.find(id);
  return it == certs_.end() ? nullptr : &it->second;
}

BlockStore::ChainWalk BlockStore::walk_ancestors(const BlockId& id) const {
  ChainWalk walk;
  BlockId cur = id;
  for (;;) {
    const Block* b = get(cur);
    if (b == nullptr) {
      walk.missing = cur;
      return walk;
    }
    walk.blocks.push_back(b);
    if (b->is_genesis()) return walk;
    cur = b->parent.block_id;
  }
}

}  // namespace repro::smr
