#include "core/replica_base.h"

#include <algorithm>

#include "common/log.h"

namespace repro::core {

ReplicaBase::ReplicaBase(const ReplicaContext& ctx)
    : sim_(ctx.sim),
      net_(ctx.net),
      crypto_(ctx.crypto),
      params_(ctx.crypto->params),
      id_(ctx.id),
      cfg_(ctx.config),
      rng_(ctx.seed),
      mempool_(ctx.id, ctx.config.batch_bytes, Rng(ctx.seed ^ 0x6d656d706f6f6cull)),
      on_block_born_(ctx.on_block_born),
      payload_source_(ctx.payload_source),
      trace_(ctx.trace),
      spans_(ctx.spans),
      on_commit_(ctx.on_commit),
      fallback_duration_hist_(ctx.fallback_duration_hist),
      wal_(ctx.wal),
      batch_store_(ctx.config.batch_store_bytes) {
  REPRO_ASSERT(sim_ != nullptr && net_ != nullptr && crypto_ != nullptr);
  qc_high_ = smr::genesis_certificate();
}

bool ReplicaBase::verify_cert(const smr::Certificate& cert) {
  // Genesis verifies by a plain comparison; it is not a signature check.
  if (cert.kind != smr::CertKind::kGenesis) ++stats_.cert_verify_misses;
  return smr::verify_certificate(*crypto_, cert);
}

bool ReplicaBase::verify_cert(const smr::TimeoutCert& tc) {
  ++stats_.cert_verify_misses;
  return smr::verify_tc(*crypto_, tc);
}

bool ReplicaBase::verify_cert(const smr::FallbackTC& ftc) {
  ++stats_.cert_verify_misses;
  return smr::verify_ftc(*crypto_, ftc);
}

bool ReplicaBase::verify_cert(const smr::CoinQC& qc) {
  ++stats_.cert_verify_misses;
  return smr::verify_coin_qc(*crypto_, qc);
}

void ReplicaBase::persist_vote_state() {
  if (wal_ == nullptr) return;
  Encoder enc;
  enc.u64(r_vote_);
  enc.u64(rank_lock_.view);
  enc.bool_(rank_lock_.endorsed);
  enc.u64(rank_lock_.round);
  enc.u64(v_cur_);
  qc_high_.encode(enc);
  enc.u32(static_cast<std::uint32_t>(coins_.size()));
  for (const auto& [view, coin] : coins_) coin.qc.encode(enc);
  encode_extra_state(enc);
  // Unresolved batch waiters: blocks stored but still awaiting their
  // referenced batch. Restored into recovered_batch_waiters_ so a restart
  // can re-issue the fetches/pulls instead of stalling until an unrelated
  // pull fires (resume_batch_recovery).
  enc.u32(static_cast<std::uint32_t>(waiting_batch_.size()));
  for (const auto& [ref, ids] : waiting_batch_) {
    enc.bytes(BytesView(ref.data(), ref.size()));
    enc.u32(static_cast<std::uint32_t>(ids.size()));
    for (const auto& bid : ids) enc.bytes(BytesView(bid.data(), bid.size()));
  }
  wal_->append(enc.result());
}

bool ReplicaBase::recover_from_wal() {
  if (wal_ == nullptr) return false;
  const auto records = wal_->replay();
  if (records.empty()) return false;
  // Snapshots are complete, so only the newest matters.
  Decoder dec(records.back());
  auto r_vote = dec.u64();
  auto lock_view = dec.u64();
  auto lock_endorsed = dec.bool_();
  auto lock_round = dec.u64();
  auto v_cur = dec.u64();
  auto qc_high = smr::Certificate::decode(dec);
  auto coin_count = dec.u32();
  if (!r_vote || !lock_view || !lock_endorsed || !lock_round || !v_cur || !qc_high ||
      !coin_count) {
    LOG_ERROR("replica %u: corrupted WAL snapshot; starting fresh", id_);
    return false;
  }
  std::map<View, InstalledCoin> coins;
  for (std::uint32_t i = 0; i < *coin_count; ++i) {
    auto coin = smr::CoinQC::decode(dec);
    if (!coin) return false;
    coins.emplace(coin->view, InstalledCoin{*coin, coin->leader(*crypto_)});
  }
  r_vote_ = *r_vote;
  rank_lock_ = smr::Rank{*lock_view, *lock_endorsed, *lock_round};
  v_cur_ = *v_cur;
  qc_high_ = *qc_high;
  coins_ = std::move(coins);
  // The chain itself is not logged: r_cur re-derives from qc_high and the
  // block bodies return through the block-retrieval path as peers talk to
  // us. Conservative: never behind round 1.
  r_cur_ = std::max<Round>(1, qc_high_.round + 1);
  recovered_batch_waiters_.clear();
  if (!restore_extra_state(dec)) {
    LOG_ERROR("replica %u: corrupted WAL extra state; keeping base state", id_);
  } else if (auto wcount = dec.u32()) {
    bool ok = true;
    for (std::uint32_t i = 0; ok && i < *wcount; ++i) {
      auto ref_bytes = dec.bytes();
      auto id_count = dec.u32();
      if (!ref_bytes || !id_count || ref_bytes->size() != std::tuple_size_v<smr::BatchId>) {
        ok = false;
        break;
      }
      smr::BatchId ref{};
      std::copy(ref_bytes->begin(), ref_bytes->end(), ref.begin());
      std::vector<smr::BlockId> ids;
      ids.reserve(*id_count);
      for (std::uint32_t j = 0; j < *id_count; ++j) {
        auto idb = dec.bytes();
        if (!idb || idb->size() != std::tuple_size_v<smr::BlockId>) {
          ok = false;
          break;
        }
        smr::BlockId bid{};
        std::copy(idb->begin(), idb->end(), bid.begin());
        ids.push_back(bid);
      }
      if (ok) recovered_batch_waiters_.emplace_back(ref, std::move(ids));
    }
    if (!ok) {
      LOG_ERROR("replica %u: corrupted WAL batch-waiter state; skipping", id_);
      recovered_batch_waiters_.clear();
    }
  }
  recovered_ = true;
  return true;
}

void ReplicaBase::resume_batch_recovery() {
  if (recovered_batch_waiters_.empty()) return;
  const auto waiters = std::move(recovered_batch_waiters_);
  recovered_batch_waiters_.clear();
  for (const auto& [ref, ids] : waiters) {
    // Re-fetch the waiting blocks: the store is not persisted, and the
    // arrival path (store_block -> try_resolve_block) rebuilds the waiter
    // entry. Pull the batch in parallel so whichever lands last resolves.
    for (const auto& bid : ids) ensure_block(bid, id_);
    if (!batch_store_.contains(ref)) start_batch_pull(ref, id_);
  }
}

void ReplicaBase::on_message(ReplicaId from, const Bytes& payload) {
  // The one receive path, for simulated and TCP deliveries alike: parse
  // the bytes, check the envelope signature of `from` against the signed
  // prefix of the wire bytes in hand, then deliver. Nothing is memoised,
  // so a payload replayed under another sender fails its own check.
  if (halted_ || cfg_.fault.crashed()) return;
  auto msg = smr::decode_message(payload);
  ++stats_.decode_misses;
  if (!msg) {
    LOG_WARN("replica %u: dropping malformed message from %u", id_, from);
    return;
  }
  if (!smr::verify_message_signature_wire(*crypto_, from, *msg, payload)) {
    LOG_WARN("replica %u: bad signature on message from %u", id_, from);
    return;
  }
  deliver(from, std::move(*msg));
}

void ReplicaBase::deliver(ReplicaId from, smr::Message&& msg) {
  // Batch dissemination is protocol-independent; handle it here. All
  // three carry self-authenticating content (the receiver re-derives the
  // id from the bytes), so there is nothing protocol-specific to check.
  if (auto* batch = std::get_if<smr::BatchMsg>(&msg)) {
    accept_batch(std::move(batch->data), from);
    return;
  }
  if (auto* pull = std::get_if<smr::BatchPullMsg>(&msg)) {
    // Amplification guard: a 36-byte pull elicits a potentially
    // multi-megabyte push, so each (peer, batch) pair gets at most one
    // push per cooldown window. Honest pullers rotate targets and only
    // re-ask the same replica after n timeouts, far outside the window;
    // a flood of duplicate pulls from one peer is absorbed for free.
    if (const Bytes* data = batch_store_.get(pull->batch_id)) {
      if (allow_batch_push(from, pull->batch_id)) {
        send(from, smr::BatchPushMsg{*data});
      }
    }
    return;
  }
  if (auto* push = std::get_if<smr::BatchPushMsg>(&msg)) {
    accept_batch(std::move(push->data), from);
    return;
  }

  // Block retrieval is protocol-independent; handle it here.
  if (auto* req = std::get_if<smr::BlockRequestMsg>(&msg)) {
    const smr::Block* b = store_.get(req->block_id);
    if (b == nullptr) return;
    smr::BlockResponseMsg resp;
    resp.blocks.push_back(*b);
    const std::uint32_t extra = std::min(req->ancestors, smr::kMaxBlocksPerResponse - 1);
    const smr::Block* cur = b;
    for (std::uint32_t i = 0; i < extra && !cur->is_genesis(); ++i) {
      cur = store_.get(cur->parent.block_id);
      if (cur == nullptr) break;
      resp.blocks.push_back(*cur);
    }
    send(from, std::move(resp));
    return;
  }
  if (auto* resp = std::get_if<smr::BlockResponseMsg>(&msg)) {
    if (resp->blocks.size() > smr::kMaxBlocksPerResponse) return;
    // Oldest first, so deferred work retries at most once per block.
    for (auto it = resp->blocks.rbegin(); it != resp->blocks.rend(); ++it) {
      if (!it->id_consistent()) {
        LOG_WARN("replica %u: dropping id-inconsistent block from %u", id_, from);
        continue;
      }
      store_block(std::move(*it), from);
    }
    return;
  }

  if (spans_on()) {
    // The handler-entry milestone for proposals: queue/verify/decode time
    // is behind us, protocol work starts now.
    if (const auto* pm = std::get_if<smr::ProposalMsg>(&msg)) {
      span(obs::SpanStage::kDispatch, crypto::digest_prefix_u64(pm->block.id),
           pm->block.view, pm->block.round);
    } else if (const auto* fp = std::get_if<smr::FbProposalMsg>(&msg)) {
      span(obs::SpanStage::kDispatch, crypto::digest_prefix_u64(fp->block.id),
           fp->block.view, fp->block.round, fp->block.height);
    }
  }
  handle_message(from, std::move(msg));
}

SharedBytes ReplicaBase::encode_signed(smr::Message& msg) {
  smr::sign_message(*crypto_, id_, msg);
  return make_shared_bytes(smr::encode_message(msg));
}

ReplicaBase::SpanPlan ReplicaBase::span_plan(const smr::Message& msg) {
  SpanPlan p;
  if (const auto* pm = std::get_if<smr::ProposalMsg>(&msg)) {
    p = {SpanPlan::kProposal, crypto::digest_prefix_u64(pm->block.id),
         pm->block.view, pm->block.round, 0};
  } else if (const auto* fp = std::get_if<smr::FbProposalMsg>(&msg)) {
    p = {SpanPlan::kProposal, crypto::digest_prefix_u64(fp->block.id),
         fp->block.view, fp->block.round, fp->block.height};
  } else if (const auto* v = std::get_if<smr::VoteMsg>(&msg)) {
    p = {SpanPlan::kVote, crypto::digest_prefix_u64(v->block_id), v->view,
         v->round, 0};
  } else if (const auto* fv = std::get_if<smr::FbVoteMsg>(&msg)) {
    p = {SpanPlan::kVote, crypto::digest_prefix_u64(fv->block_id), fv->view,
         fv->round, fv->height};
  }
  return p;
}

void ReplicaBase::record_span_plan(const SpanPlan& plan, const SharedBytes& payload) {
  switch (plan.kind) {
    case SpanPlan::kProposal:
      // aux carries the payload content key: the bridge from this block's
      // protocol-level spans to the transport spans keyed on wire bytes.
      span(obs::SpanStage::kProposalEncode, plan.key, plan.view, plan.round,
           obs::span_key_of(*payload));
      break;
    case SpanPlan::kVote:
      span(obs::SpanStage::kVoteSend, plan.key, plan.view, plan.round,
           plan.height);
      break;
    case SpanPlan::kNone:
      break;
  }
}

void ReplicaBase::send(ReplicaId to, smr::Message msg) {
  if (!spans_on()) {
    net_->send(id_, to, encode_signed(msg));
    return;
  }
  const SpanPlan plan = span_plan(msg);
  SharedBytes payload = encode_signed(msg);
  record_span_plan(plan, payload);
  net_->send(id_, to, std::move(payload));
}

void ReplicaBase::multicast(smr::Message msg) {
  ++stats_.multicast_encodes;
  if (!spans_on()) {
    net_->multicast(id_, encode_signed(msg));
    return;
  }
  const SpanPlan plan = span_plan(msg);
  SharedBytes payload = encode_signed(msg);
  record_span_plan(plan, payload);
  net_->multicast(id_, std::move(payload));
}

bool ReplicaBase::is_endorsed(const smr::Certificate& cert) const {
  if (cert.kind != smr::CertKind::kFallback) return false;
  auto it = coins_.find(cert.view);
  if (it == coins_.end()) return false;
  return it->second.leader == cert.proposer;
}

bool ReplicaBase::counts_for_commit(const smr::Certificate& cert) const {
  if (cert.kind == smr::CertKind::kQuorum) return true;
  if (cert.kind == smr::CertKind::kFallback) return is_endorsed(cert);
  return false;
}

bool ReplicaBase::install_coin(const smr::CoinQC& coin) {
  if (coins_.count(coin.view) != 0) return false;
  coins_.emplace(coin.view, InstalledCoin{coin, coin.leader(*crypto_)});
  // Endorsements of recorded f-QCs of this view may have flipped on:
  // rescan them for commit (the Exit Fallback "check for commit").
  for (const auto& cert : store_.certificates()) {
    if (cert.kind == smr::CertKind::kFallback && cert.view == coin.view) {
      try_commit_from(cert, cert.proposer);
    }
  }
  return true;
}

const smr::CoinQC* ReplicaBase::coin_for(View view) const {
  auto it = coins_.find(view);
  return it == coins_.end() ? nullptr : &it->second.qc;
}

void ReplicaBase::note_certificate(const smr::Certificate& cert, ReplicaId hint) {
  store_.add_certificate(cert);
  try_commit_from(cert, hint);
}

void ReplicaBase::update_qc_high(const smr::Certificate& qc) {
  if (rank_of(qc) > rank_of(qc_high_)) qc_high_ = qc;
}

void ReplicaBase::lock_parent_rank(const smr::Certificate& qc, ReplicaId hint) {
  const smr::Block* b = store_.get(qc.block_id);
  if (b == nullptr) {
    waiting_lock_[qc.block_id].push_back(qc);
    ensure_block(qc.block_id, hint);
    return;
  }
  rank_lock_ = smr::max(rank_lock_, rank_of(b->parent));
}

void ReplicaBase::lock_direct_rank(const smr::Certificate& qc) {
  rank_lock_ = smr::max(rank_lock_, rank_of(qc));
}

bool ReplicaBase::ensure_block(const smr::BlockId& id, ReplicaId hint) {
  if (store_.contains(id)) return true;
  if (outstanding_fetches_.insert(id).second) {
    ++stats_.blocks_fetched;
    // Ask for an ancestor range: when we are missing one block we are
    // often missing a suffix of the chain (catch-up after a crash or
    // partition), and batched backfill must outpace chain growth — 16
    // blocks per round trip is ~30x the steady-state commit rate while
    // keeping responses small when only one block was actually missing.
    send(hint == id_ ? leader_of(r_cur_) : hint, smr::BlockRequestMsg{id, 16});
  }
  return false;
}

void ReplicaBase::store_block(smr::Block block, ReplicaId from) {
  const smr::BlockId id = block.id;
  if (!store_.insert(std::move(block))) return;
  outstanding_fetches_.erase(id);
  try_resolve_block(id, from);
  const smr::Block* stored = store_.get(id);
  retry_deferred(id, from);
  on_block_stored(*stored, from);
}

void ReplicaBase::on_block_stored(const smr::Block&, ReplicaId) {}

// ---- pipelined proposal path (DESIGN.md §12) ------------------------------

void ReplicaBase::maybe_announce_batch(Round round) {
  if (!cfg_.batch_refs || pending_batch_) return;
  if (leader_of(round) != id_) return;
  if (halted_ || cfg_.fault.crashed()) return;
  smr::Batch batch = smr::Batch::seal(next_payload());
  ++stats_.batches_sealed;
  if (use_batch_ref(batch.data.size())) {
    batch_store_.put(batch.id, batch.data);
    if (cfg_.batch_announce && !cfg_.fault.mute()) {
      ++stats_.batches_announced;
      trace(obs::EventKind::kBatchAnnounced, v_cur_, round, 0, batch.data.size());
      span(obs::SpanStage::kBatchAnnounce, crypto::digest_prefix_u64(batch.id),
           v_cur_, round, batch.data.size());
      multicast(smr::BatchMsg{batch.data});
    }
  }
  pending_batch_ = std::move(batch);
}

ReplicaBase::PayloadChoice ReplicaBase::take_payload() {
  if (pending_batch_) {
    smr::Batch batch = std::move(*pending_batch_);
    pending_batch_.reset();
    if (!use_batch_ref(batch.data.size())) {
      return {std::move(batch.data), smr::kInlinePayload};
    }
    return {Bytes(batch.id.begin(), batch.id.end()), smr::kBatchRefPayload};
  }
  Bytes data = next_payload();
  if (!use_batch_ref(data.size())) return {std::move(data), smr::kInlinePayload};
  // No pre-announced batch (first proposal after rotation, or announce is
  // off): seal and — per-link FIFO means it still lands before the
  // proposal — announce on the spot.
  smr::Batch batch = smr::Batch::seal(std::move(data));
  ++stats_.batches_sealed;
  batch_store_.put(batch.id, batch.data);
  if (cfg_.batch_announce && !cfg_.fault.mute()) {
    ++stats_.batches_announced;
    trace(obs::EventKind::kBatchAnnounced, v_cur_, r_cur_, 0, batch.data.size());
    span(obs::SpanStage::kBatchAnnounce, crypto::digest_prefix_u64(batch.id),
         v_cur_, r_cur_, batch.data.size());
    multicast(smr::BatchMsg{batch.data});
  }
  return {Bytes(batch.id.begin(), batch.id.end()), smr::kBatchRefPayload};
}

void ReplicaBase::try_resolve_block(const smr::BlockId& id, ReplicaId hint) {
  smr::Block* b = store_.get_mutable(id);
  if (b == nullptr || !b->is_batch_ref() || b->payload_resolved()) return;
  const smr::BatchId ref = b->batch_ref();
  if (const Bytes* data = batch_store_.get(ref)) {
    b->resolved_payload = *data;
    ++stats_.batch_ref_hits;
    trace(obs::EventKind::kBatchResolved, b->view, b->round);
    return;
  }
  ++stats_.batch_ref_misses;
  waiting_batch_[ref].push_back(id);
  start_batch_pull(ref, hint);
  // Keep the WAL's waiter section fresh: a crash between now and the next
  // vote must still recover this in-flight reference (no-op without WAL).
  persist_vote_state();
}

void ReplicaBase::maybe_forge_ghost_chain(const smr::Block& real) {
  if (!cfg_.fault.forges_ghost_chain() || halted_) return;
  if (!cfg_.batch_refs || real.is_fallback()) return;
  const Round r = real.round;
  if (r < 3 || r <= last_ghost_round_) return;
  // Anchor the fabricated chain on the *genuine* round-(r-3) certificate
  // so every edge has consecutive rounds and the victims' commit scan
  // walks seamlessly from the ghost blocks back into the real chain
  // (a non-consecutive edge would leave a non-monotonic ledger). The
  // attacker followed the protocol until now, so the two real ancestors
  // are normally in its store; skip this round if either is missing.
  const smr::Block* p1 = store_.get(real.parent.block_id);  // round r-1
  if (p1 == nullptr) return;
  const smr::Block* p2 = store_.get(p1->parent.block_id);  // round r-2
  if (p2 == nullptr) return;
  const smr::Certificate anchor = p2->parent;  // real cert for round r-3
  last_ghost_round_ = r;
  // A deterministic ghost batch, round-stamped so each round's fabricated
  // chain is distinct and large enough to ship as a reference.
  Bytes batch_data(cfg_.batch_ref_min_bytes + 64, 0x6b);
  Encoder stamp;
  stamp.u64(r);
  stamp.u64(id_);
  const Bytes& stamped = stamp.result();
  std::copy(stamped.begin(), stamped.end(), batch_data.begin());
  const smr::Batch batch = smr::Batch::seal(std::move(batch_data));

  // Three id-consistent blocks whose embedded parent certificates carry
  // garbage threshold signatures. Nothing on the catch-up store path
  // verifies them; the deferred-vote gate is what keeps them from ever
  // becoming vote candidates (unless unsafe_trust_catchup_blocks).
  smr::Block b0 = smr::Block::make(anchor, r - 2, real.view, 0, leader_of(r - 2),
                                   Bytes{0xde, 0xad});
  const smr::Certificate q0{smr::CertKind::kQuorum, b0.id,     b0.round,
                            b0.view,                b0.height, b0.proposer,
                            crypto::ThresholdSig{0xbadc0debadc0deull}};
  smr::Block b1 = smr::Block::make(q0, r - 1, real.view, 0, leader_of(r - 1), Bytes{0xbe, 0xef});
  const smr::Certificate q1{smr::CertKind::kQuorum, b1.id,     b1.round,
                            b1.view,                b1.height, b1.proposer,
                            crypto::ThresholdSig{0xbadc0debadc0deull}};
  smr::Block ghost = smr::Block::make(q1, r, real.view, 0, leader_of(r),
                                      Bytes(batch.id.begin(), batch.id.end()),
                                      smr::kBatchRefPayload);
  smr::BlockResponseMsg resp;  // receivers store rbegin-first: push tip first
  resp.blocks.push_back(std::move(ghost));
  resp.blocks.push_back(std::move(b1));
  resp.blocks.push_back(std::move(b0));
  multicast(std::move(resp));
  multicast(smr::BatchMsg{batch.data});
}

void ReplicaBase::accept_batch(Bytes data, ReplicaId from) {
  const smr::BatchId ref = smr::Batch::compute_id(data);
  if (!batch_store_.contains(ref)) batch_store_.put(ref, std::move(data));
  if (auto it = batch_pulls_.find(ref); it != batch_pulls_.end()) {
    sim_->cancel(it->second.timer);
    batch_pulls_.erase(it);
  }
  // A batch larger than the whole store bound can never be cached; its
  // referencing blocks stay unresolved (the round times out — liveness
  // comes from fallback, not from unbounded memory).
  const Bytes* stored = batch_store_.get(ref);
  if (stored == nullptr) return;
  if (auto it = waiting_batch_.find(ref); it != waiting_batch_.end()) {
    auto ids = std::move(it->second);
    waiting_batch_.erase(it);
    for (const auto& bid : ids) {
      smr::Block* b = store_.get_mutable(bid);
      if (b == nullptr || b->payload_resolved()) continue;
      b->resolved_payload = *stored;
      trace(obs::EventKind::kBatchResolved, b->view, b->round);
      on_batch_resolved(*b, from);
    }
  }
  if (auto it = waiting_commit_batch_.find(ref); it != waiting_commit_batch_.end()) {
    auto certs = std::move(it->second);
    waiting_commit_batch_.erase(it);
    for (const auto& c : certs) try_commit_from(c, from);
  }
}

void ReplicaBase::start_batch_pull(const smr::BatchId& ref, ReplicaId hint) {
  if (batch_pulls_.count(ref) != 0) return;
  batch_pulls_.emplace(ref, BatchPull{0, hint, sim::kInvalidEvent});
  send_batch_pull(ref);
}

void ReplicaBase::send_batch_pull(const smr::BatchId& ref) {
  auto it = batch_pulls_.find(ref);
  if (it == batch_pulls_.end()) return;
  BatchPull& st = it->second;
  // Rotate through the replicas starting at the block's sender: the
  // proposer certainly has the batch, but it may be the one replica that
  // is unreachable — any replica that voted has it too.
  ReplicaId target = (st.hint + st.attempts) % params_.n;
  if (target == id_) target = (target + 1) % params_.n;
  ++stats_.batches_pulled;
  send(target, smr::BatchPullMsg{ref});
  const smr::BatchId ref_copy = ref;
  st.timer = sim_->schedule_after(cfg_.batch_pull_timeout_us,
                                  [this, ref_copy] { on_batch_pull_timer(ref_copy); });
}

void ReplicaBase::on_batch_pull_timer(const smr::BatchId& ref) {
  if (halted_ || cfg_.fault.crashed()) return;
  auto it = batch_pulls_.find(ref);
  if (it == batch_pulls_.end()) return;
  if (batch_store_.contains(ref)) {
    batch_pulls_.erase(it);
    return;
  }
  if (++it->second.attempts > cfg_.batch_pull_retries) {
    // Give up for now; the waiting_batch_ entries stay, so a late batch
    // still resolves, and a commit attempt restarts the pull.
    ++stats_.batch_pull_timeouts;
    batch_pulls_.erase(it);
    return;
  }
  send_batch_pull(ref);
}

bool ReplicaBase::allow_batch_push(ReplicaId peer, const smr::BatchId& ref) {
  const SimTime now = sim_->now();
  auto& log = recent_pushes_[peer];
  // Lazy expiry keeps the per-peer map to pushes inside the window.
  for (auto it = log.begin(); it != log.end();) {
    it = now - it->second >= cfg_.batch_pull_timeout_us ? log.erase(it) : std::next(it);
  }
  const bool fresh = log.emplace(ref, now).second;
  if (!fresh) ++stats_.batch_pushes_suppressed;
  return fresh;
}

void ReplicaBase::prune_batch_waiters() {
  if (ledger_.records().empty()) return;
  const Round tip = ledger_.records().back().round;
  for (auto it = waiting_batch_.begin(); it != waiting_batch_.end();) {
    auto& ids = it->second;
    // A block at or below the committed tip that is not itself committed
    // sits on a dead fork: it can never be voted on (r_cur is past it)
    // and never commit (the chain at its round is final). Committed
    // blocks never linger here — commit gating requires resolution, and
    // resolution removes the waiter.
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [&](const smr::BlockId& bid) {
                               const smr::Block* b = store_.get(bid);
                               return b == nullptr || b->round <= tip;
                             }),
              ids.end());
    it = ids.empty() ? waiting_batch_.erase(it) : std::next(it);
  }
  for (auto it = waiting_commit_batch_.begin(); it != waiting_commit_batch_.end();) {
    auto& certs = it->second;
    certs.erase(std::remove_if(certs.begin(), certs.end(),
                               [&](const smr::Certificate& c) { return c.round <= tip; }),
                certs.end());
    it = certs.empty() ? waiting_commit_batch_.erase(it) : std::next(it);
  }
}

void ReplicaBase::defer_commit(const smr::BlockId& missing, const smr::Certificate& cert) {
  auto& waiting = waiting_commit_[missing];
  // During catch-up many certificates stall on the same missing ancestor;
  // queueing duplicates makes every retry quadratic.
  for (const auto& c : waiting) {
    if (c.block_id == cert.block_id) return;
  }
  waiting.push_back(cert);
}

void ReplicaBase::retry_deferred(const smr::BlockId& id, ReplicaId from) {
  if (auto it = waiting_lock_.find(id); it != waiting_lock_.end()) {
    auto certs = std::move(it->second);
    waiting_lock_.erase(it);
    for (const auto& c : certs) lock_parent_rank(c, from);
  }
  if (auto it = waiting_commit_.find(id); it != waiting_commit_.end()) {
    auto certs = std::move(it->second);
    waiting_commit_.erase(it);
    for (const auto& c : certs) try_commit_from(c, from);
  }
}

void ReplicaBase::try_commit_from(const smr::Certificate& cert, ReplicaId hint) {
  // The commit rule (paper Fig 2 / Fig 4): commit_len() adjacent blocks,
  // each certified (regular QC) or endorsed (f-QC), with consecutive
  // round numbers and the same view number; commit the oldest and its
  // ancestors. `cert` certifies the newest block of the candidate chain.
  if (!counts_for_commit(cert)) return;

  const std::uint32_t len = commit_len();
  smr::Certificate cur = cert;
  const smr::Block* oldest = nullptr;
  for (std::uint32_t k = 0; k + 1 < len; ++k) {
    const smr::Block* b = store_.get(cur.block_id);
    if (b == nullptr) {
      defer_commit(cur.block_id, cert);
      ensure_block(cur.block_id, hint);
      return;
    }
    const smr::Certificate& parent = b->parent;
    if (!counts_for_commit(parent)) return;
    if (parent.view != cert.view) return;        // same view number
    if (parent.round + 1 != cur.round) return;   // consecutive rounds
    cur = parent;
    oldest = nullptr;  // resolved below once the loop settles on `cur`
  }
  oldest = store_.get(cur.block_id);
  if (oldest == nullptr) {
    defer_commit(cur.block_id, cert);
    ensure_block(cur.block_id, hint);
    return;
  }
  if (ledger_.is_committed(oldest->id)) return;

  std::optional<smr::BlockId> missing;
  if (!ledger_.can_commit(*oldest, store_, &missing)) {
    defer_commit(*missing, cert);
    ensure_block(*missing, hint);
    return;
  }

  // Batch-reference gating: every block about to commit must have its
  // payload resolved — the ledger record and the application's commit
  // callback need the transaction bytes, and the output must be
  // byte-identical to inline mode. A replica that voted already resolved;
  // this only stalls catch-up paths, which pull the batch like any miss.
  for (const smr::Block* b = oldest;
       b != nullptr && !b->is_genesis() && !ledger_.is_committed(b->id);
       b = store_.get(b->parent.block_id)) {
    if (b->payload_resolved()) continue;
    const smr::BatchId ref = b->batch_ref();
    auto& waiting = waiting_commit_batch_[ref];
    bool queued = false;
    for (const auto& c : waiting) {
      if (c.block_id == cert.block_id) {
        queued = true;
        break;
      }
    }
    if (!queued) waiting.push_back(cert);
    start_batch_pull(ref, hint);
    return;
  }

  const std::size_t before = ledger_.size();
  const std::size_t n = ledger_.commit_chain(*oldest, store_, sim_->now());
  if (n > 0) {
    LOG_DEBUG("replica %u: committed %zu block(s), tip round %llu view %llu", id_, n,
              static_cast<unsigned long long>(oldest->round),
              static_cast<unsigned long long>(oldest->view));
    for (std::size_t i = before; i < ledger_.size(); ++i) {
      const smr::CommitRecord& rec = ledger_.records()[i];
      trace(obs::EventKind::kBlockCommitted, rec.view, rec.round, rec.height,
            smr::BlockIdHash{}(rec.id));
      span(obs::SpanStage::kCommit, crypto::digest_prefix_u64(rec.id), rec.view,
           rec.round, rec.height);
      if (on_commit_) on_commit_(rec);
    }
    prune_batch_waiters();
  }
}

}  // namespace repro::core
